"""Ablation: how much each utility optimisation (masking, spatial splitting)
reduces the noise of the Case 1 query (a design-choice ablation; the figure
and table benchmarks are listed in docs/benchmarks.md).
"""

from __future__ import annotations

from repro.evaluation.queries import case1_counting_query
from repro.utils.timebase import SECONDS_PER_HOUR

from benchmarks.conftest import print_table


def test_ablation_masking_and_regions(benchmark, evaluation_system):
    window = 2.0 * SECONDS_PER_HOUR

    def run():
        rows = []
        configurations = [
            ("no optimisation", None, None),
            ("masking", "owner", None),
        ]
        for label, mask, region_scheme in configurations:
            query = case1_counting_query(
                "campus", category="person", window_seconds=window, chunk_duration=60.0,
                max_rows=5, mask=mask, bucket_seconds=None, epsilon=1.0,
                region_scheme=region_scheme)
            result = evaluation_system.execute(query, charge_budget=False)
            rows.append({
                "configuration": label,
                "sensitivity": result.releases[0].sensitivity,
                "noise_scale": round(result.releases[0].noise_scale, 1),
            })
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table("Ablation: effect of masking on Case 1 noise", rows)
    assert rows[1]["noise_scale"] < rows[0]["noise_scale"]
