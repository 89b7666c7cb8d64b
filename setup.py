"""Package metadata and setuptools entry point (`python setup.py develop`).

The build environment has no network access and no `wheel` package, so
pip's PEP 660 editable path is unavailable; this file carries the minimal
metadata itself.  Test configuration lives in pytest.ini.
"""
from setuptools import find_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
    install_requires=["numpy"],
)
