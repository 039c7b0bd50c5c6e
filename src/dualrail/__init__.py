"""Doppler-resilient ground-Rydberg transition and blockade-gate simulator."""

__version__ = "0.1.0"
