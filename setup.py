"""Packaging for the HydEE reproduction (see README.md)."""

from setuptools import find_packages, setup

setup(
    name="hydee-repro",
    version="1.0.0",
    description=(
        "Discrete-event reproduction of HydEE: failure containment without "
        "event logging for send-deterministic MPI applications (IPDPS 2012)"
    ),
    long_description=open("README.md", encoding="utf-8").read(),
    long_description_content_type="text/markdown",
    author="hydee-repro contributors",
    license="MIT",
    packages=find_packages("src"),
    package_dir={"": "src"},
    python_requires=">=3.9",
    install_requires=["numpy>=1.21"],
    extras_require={
        "test": ["pytest>=7", "hypothesis>=6"],
    },
    entry_points={
        "console_scripts": [
            "repro-campaign=repro.campaign.cli:main",
            "repro-experiment=repro.experiments:main",
            "repro-lint=repro.lint.cli:main",
        ]
    },
    classifiers=[
        "Development Status :: 4 - Beta",
        "Intended Audience :: Science/Research",
        "License :: OSI Approved :: MIT License",
        "Programming Language :: Python :: 3",
        "Topic :: System :: Distributed Computing",
    ],
)
