"""Synthetic scene substrate standing in for the paper's real videos."""
