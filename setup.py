"""Setup shim for environments without the ``wheel`` package.

The canonical metadata lives in pyproject.toml; this file only enables
legacy editable installs (``pip install -e . --no-use-pep517``) in offline
environments where PEP 660 builds are unavailable.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    package_data={"repro": ["py.typed"]},
    install_requires=["numpy>=1.21"],
    python_requires=">=3.11",
)
