"""Every CI job installs every third-party module the code imports.

A hosted runner starts from a bare Python: a module the suite imports
but a job's ``pip install`` line omits fails that job at collection.
The workflow file is read as plain text (no YAML parser needed).
"""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"
SCANNED = ("src", "tests", "benchmarks", "tools")

# Import name -> distribution name, where they differ.
DISTRIBUTIONS = {"yaml": "pyyaml"}


def install_lines_by_job() -> dict[str, set[str]]:
    """``{job: packages}`` from each job's ``pip install`` line."""
    jobs: dict[str, set[str]] = {}
    job = None
    in_jobs = False
    for line in WORKFLOW.read_text().splitlines():
        if re.match(r"^jobs:\s*$", line):
            in_jobs = True
            continue
        if in_jobs and re.match(r"^\S", line):
            in_jobs = False
        header = re.match(r"^  ([A-Za-z0-9_-]+):\s*$", line)
        if in_jobs and header:
            job = header.group(1)
            jobs[job] = set()
            continue
        install = re.search(r"pip install\s+(.*)$", line)
        if job is not None and install:
            jobs[job].update(
                word.lower() for word in install.group(1).split() if not word.startswith("-")
            )
    return jobs


def third_party_imports() -> dict[str, set[str]]:
    """``{top-level module: importing files}`` outside stdlib and the repo."""
    files = [path for root in SCANNED for path in (ROOT / root).rglob("*.py")]
    local = {path.stem for path in files} | {
        path.parent.name for path in files if path.name == "__init__.py"
    }
    found: dict[str, set[str]] = {}
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level and node.module:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top not in sys.stdlib_module_names and top not in local:
                    found.setdefault(top, set()).add(str(path.relative_to(ROOT)))
    return found


def test_workflow_has_install_lines():
    jobs = install_lines_by_job()
    assert set(jobs) >= {"ci", "conformance", "coverage", "chaos"}
    assert all(jobs.values()), jobs


def test_every_job_installs_every_imported_module():
    imports = third_party_imports()
    # The scan sees the dependencies the suite is known to import.
    assert {"numpy", "scipy", "pytest", "hypothesis"} <= set(imports)
    missing = {
        job: sorted(
            f"{DISTRIBUTIONS.get(module, module)} (imported by {min(imports[module])})"
            for module in imports
            if DISTRIBUTIONS.get(module, module).lower() not in packages
        )
        for job, packages in install_lines_by_job().items()
    }
    assert not any(missing.values()), missing
