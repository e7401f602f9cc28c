"""Benchmark of the pdc package: seeded workloads, output oracles and a
span tracer that measures each pdc layer from outside the package."""
