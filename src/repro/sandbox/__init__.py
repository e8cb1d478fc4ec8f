"""Isolated execution of analyst-provided processing code (Appendix B)."""
