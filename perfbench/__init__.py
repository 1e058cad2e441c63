"""Seeded end-to-end and per-layer benchmark for infidex_ray (see README.md)."""
