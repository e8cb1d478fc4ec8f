"""Shared utilities: time bases, random-number management, statistics."""
