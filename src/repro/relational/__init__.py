"""Relational substrate: untrusted intermediate tables and restricted SQL.

PROCESS statements produce *intermediate tables* whose contents Privid never
trusts; SELECT statements run a restricted relational-algebra query over them
(projection, group-by, join, union, limit) ending in an aggregation.
Alongside evaluation, every operator propagates the sensitivity bookkeeping
of Fig. 10: the maximum number of rows a (rho, K)-bounded event could
influence, per-column range constraints, and row-count constraints.
"""
