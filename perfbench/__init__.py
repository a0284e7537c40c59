"""Benchmark for the librecatastro_ray search layer (see README.md)."""
