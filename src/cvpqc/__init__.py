"""Truncated-Fock numerics for a coherent-state private channel, its squeezed
variant, a beam-splitter eavesdropping model, and even-coherent-state
approximations, plus a reproducible sweep CLI."""

__version__ = "0.1.0"
