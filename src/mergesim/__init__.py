"""Deterministic microscopic simulator of game-theoretic highway merging."""
