"""Standalone benchmark for protodro; see README.md in this directory."""
