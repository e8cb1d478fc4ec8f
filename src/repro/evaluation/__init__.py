"""Evaluation harness: the paper's queries (Q1-Q13), baselines and metrics."""
