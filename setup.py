"""Packaging for the sparse semi-oblivious routing reproduction.

Kept as a plain ``setup.py`` so editable installs keep working in offline
environments whose setuptools lacks wheel support
(``pip install -e . --no-build-isolation`` falls back to the legacy
``setup.py develop`` path).
"""

from setuptools import find_packages, setup

setup(
    name="repro-semi-oblivious-routing",
    version="1.1.0",
    description="Sparse semi-oblivious routing: few random paths suffice (PODC 2023 reproduction)",
    package_dir={"": "src"},
    packages=find_packages("src"),
    # The bundled real-topology catalog (repro net): data files ship
    # with the package so zoo(...)/sndlib(...) resolve after install.
    package_data={
        "repro.net.catalog": ["*.graphml", "*.txt", "*.xml", "*.json"],
    },
    python_requires=">=3.10",
    # scipy >= 1.15 bundles the HiGHS binding (scipy.optimize._highspy)
    # that both congestion LPs drive directly, and its CSR matrices are
    # the compiled evaluation backend.  The binding is private to scipy
    # (the 15-argument array passModel among it), so the range stops
    # below the first release it was not tested on (1.17.1 was).
    install_requires=[
        "numpy",
        "networkx",
        "scipy>=1.15,<1.18",
    ],
)
