"""Analytic performance models (Detmold/Oudshoorn extension, paper §6)."""

__all__ = []
