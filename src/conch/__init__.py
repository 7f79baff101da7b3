"""Conch: a desk-scale RV64 simulator with one-bit memory tagging,
taint propagation, and transparent tweakable-cipher encryption of tagged
words at the cache-DRAM boundary."""

__version__ = "0.1.0"
