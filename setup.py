from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.0.0",
    description="BrePartition: exact high-dimensional kNN under Bregman divergences",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy", "scipy"],
    extras_require={"test": ["pytest", "hypothesis"]},
)
