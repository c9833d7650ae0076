"""Shared utilities: RNG handling, text tables, argument validation.

These helpers are deliberately dependency-light; everything else in
:mod:`repro` builds on them.
"""
