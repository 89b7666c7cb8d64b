"""The fault-injection harness itself: determinism, gating, activation.

Every chaos test in this suite leans on the injector being *scheduled*
rather than random — these tests pin that contract down: positional and
probabilistic rules fire reproducibly from (rules, seed) alone, each
injector counts its own traversals, and the environment spec activates
an injector lazily (how the CI chaos leg picks up the schedule).
"""

import json

import pytest

import repro.reliability.faults as faults
from repro.reliability.faults import (
    FAULT_SEED_ENV,
    FAULT_SPEC_ENV,
    FaultInjector,
    FaultRule,
    InjectedFault,
    fault_point,
    get_injector,
    injected_faults,
    install_injector,
    seed_from_env,
    torn_bytes,
    uninstall_injector,
)


class TestFaultRule:
    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError, match="unknown fault action"):
            FaultRule(site="x", action="explode")

    def test_at_must_be_positive(self):
        with pytest.raises(ValueError, match="at must be >= 1"):
            FaultRule(site="x", action="raise", at=0)

    def test_probability_bounds(self):
        with pytest.raises(ValueError, match="probability"):
            FaultRule(site="x", action="raise", probability=1.5)


class TestPositionalRules:
    def test_fires_on_exactly_the_nth_traversal(self):
        injector = FaultInjector([FaultRule(site="s", action="raise", at=3)])
        assert injector.check("s") is None
        assert injector.check("s") is None
        fired = injector.check("s")
        assert fired is not None and fired.occurrence == 3
        assert injector.check("s") is None  # times=1 spent

    def test_times_limits_repeat_firings(self):
        injector = FaultInjector(
            [FaultRule(site="s", action="raise", at=None, probability=1.0, times=2)]
        )
        firings = [injector.check("s") for _ in range(5)]
        assert [f is not None for f in firings] == [True, True, False, False, False]

    def test_unlimited_times(self):
        injector = FaultInjector(
            [FaultRule(site="s", action="raise", probability=1.0, times=None)]
        )
        assert all(injector.check("s") for _ in range(4))

    def test_sites_count_independently(self):
        injector = FaultInjector([FaultRule(site="b", action="raise", at=1)])
        # Traversals of unrelated sites never advance site b's counter.
        assert injector.check("a") is None
        assert injector.check("a") is None
        assert injector.check("b") is not None

    def test_first_matching_rule_wins(self):
        injector = FaultInjector(
            [
                FaultRule(site="s", action="drop", at=1),
                FaultRule(site="s", action="raise", at=1),
            ]
        )
        fired = injector.check("s")
        assert fired is not None and fired.action == "drop"


class TestProbabilisticDeterminism:
    def rule(self):
        return FaultRule(site="s", action="raise", probability=0.3, times=None)

    def test_same_seed_same_schedule(self):
        a = FaultInjector([self.rule()], seed=7)
        b = FaultInjector([self.rule()], seed=7)
        pattern_a = [a.check("s") is not None for _ in range(50)]
        pattern_b = [b.check("s") is not None for _ in range(50)]
        assert pattern_a == pattern_b
        assert any(pattern_a) and not all(pattern_a)

    def test_different_seeds_differ(self):
        a = FaultInjector([self.rule()], seed=7)
        b = FaultInjector([self.rule()], seed=8)
        assert [a.check("s") is not None for _ in range(50)] != [
            b.check("s") is not None for _ in range(50)
        ]

    def test_draws_are_independent_of_other_sites(self):
        # Interleaving traversals of another site must not shift s's draws.
        alone = FaultInjector([self.rule()], seed=7)
        interleaved = FaultInjector([self.rule()], seed=7)
        pattern_alone = [alone.check("s") is not None for _ in range(30)]
        pattern_inter = []
        for _ in range(30):
            interleaved.check("other")
            pattern_inter.append(interleaved.check("s") is not None)
        assert pattern_alone == pattern_inter


class TestSharedCounters:
    def test_per_process_counters_restart_per_instance(self):
        rule = FaultRule(site="s", action="raise", at=1, times=None)
        first = FaultInjector([rule])
        second = FaultInjector([rule])
        assert first.check("s") is not None
        assert second.check("s") is not None  # its own traversal 1


class TestFaultPoint:
    def test_noop_without_injector(self):
        uninstall_injector()
        assert fault_point("anything") is None

    def test_raise_action_raises_with_site(self):
        with injected_faults([FaultRule(site="s", action="raise", at=1)]):
            with pytest.raises(InjectedFault) as excinfo:
                fault_point("s")
            assert excinfo.value.site == "s"

    def test_injected_fault_is_not_a_repro_error(self):
        from repro.exceptions import ReproError

        assert not issubclass(InjectedFault, ReproError)

    def test_tear_is_returned_to_the_caller(self):
        with injected_faults(
            [FaultRule(site="s", action="tear", at=1, tear_at=3)]
        ):
            fired = fault_point("s")
        assert fired is not None and fired.action == "tear"
        assert torn_bytes(b"abcdef", fired) == b"abc"

    def test_torn_bytes_clamps_to_data_length(self):
        with injected_faults(
            [FaultRule(site="s", action="tear", at=1, tear_at=99)]
        ):
            fired = fault_point("s")
        assert torn_bytes(b"ab", fired) == b"ab"
        assert torn_bytes(b"ab", None) is None

    def test_context_manager_restores_previous_injector(self):
        outer = install_injector(FaultInjector([]))
        with injected_faults([FaultRule(site="s", action="raise", at=1)]):
            assert get_injector() is not outer
        assert get_injector() is outer

    def test_audit_trail_records_firings(self):
        with injected_faults(
            [FaultRule(site="s", action="raise", at=1)]
        ) as injector:
            with pytest.raises(InjectedFault):
                fault_point("s")
        assert [(f.site, f.action) for f in injector.fired] == [("s", "raise")]


class TestEnvironmentActivation:
    def test_spec_and_seed_activate_lazily(self, monkeypatch):
        spec = [{"site": "s", "action": "raise", "at": 1}]
        monkeypatch.setenv(FAULT_SPEC_ENV, json.dumps(spec))
        monkeypatch.setenv(FAULT_SEED_ENV, "42")
        monkeypatch.setattr(faults, "_ENV_CHECKED", False)
        monkeypatch.setattr(faults, "_INSTALLED", None)
        injector = get_injector()
        assert injector is not None
        assert injector.seed == 42
        assert [r.site for r in injector.rules] == ["s"]

    def test_no_spec_means_no_injector(self, monkeypatch):
        monkeypatch.delenv(FAULT_SPEC_ENV, raising=False)
        monkeypatch.setattr(faults, "_ENV_CHECKED", False)
        monkeypatch.setattr(faults, "_INSTALLED", None)
        assert get_injector() is None

    def test_seed_from_env_default(self, monkeypatch):
        monkeypatch.delenv(FAULT_SEED_ENV, raising=False)
        assert seed_from_env() == 0
        monkeypatch.setenv(FAULT_SEED_ENV, "not-a-number")
        assert seed_from_env(default=5) == 5
        monkeypatch.setenv(FAULT_SEED_ENV, "9")
        assert seed_from_env() == 9
