"""Packaging for the `repro` library.

Metadata lives here (plus setup.cfg) rather than pyproject.toml on
purpose: the offline environments this reproduction targets ship a
setuptools without the `wheel` package, and pip's pyproject-driven
editable install path (PEP 660) hard-requires bdist_wheel.  With plain
setup.py packaging, `pip install -e .` uses the classic
`setup.py develop` path and works everywhere.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of Schiper & Pedone, 'Optimal Atomic Broadcast "
        "and Multicast Algorithms for Wide Area Networks' (PODC 2007)"
    ),
    long_description=open("README.md").read(),
    long_description_content_type="text/markdown",
    license="MIT",
    python_requires=">=3.9",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    install_requires=[],
    extras_require={"test": ["pytest", "hypothesis"]},
    keywords=[
        "atomic broadcast", "atomic multicast", "total order",
        "distributed systems", "consensus", "wide area networks",
    ],
    classifiers=[
        "Development Status :: 5 - Production/Stable",
        "Intended Audience :: Science/Research",
        "Programming Language :: Python :: 3",
        "Topic :: System :: Distributed Computing",
    ],
)
