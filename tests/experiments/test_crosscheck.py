"""Tests for the four-way cross-validation harness."""

import random

from repro.ddg.generators import GeneratorConfig, random_ddg
from repro.ddg.kernels import all_kernels
from repro.experiments.crosscheck import cross_check
from repro.machine.presets import motivating_machine, powerpc604


class TestKernels:
    def test_all_kernels_consistent(self):
        machine = powerpc604()
        small = [k for k in all_kernels() if k.num_ops <= 9]
        report = cross_check(small, machine, time_limit_per_t=10.0)
        assert report.all_consistent, report.problems()

    def test_motivating_machine_consistent(self):
        from repro.ddg.kernels import motivating_example

        report = cross_check(
            [motivating_example()], motivating_machine(),
        )
        assert report.all_consistent, report.problems()
        row = report.rows[0]
        assert row.highs_t == row.sat_t == row.enum_t == 4

    def test_render_mentions_verdict(self):
        from repro.ddg.kernels import dot_product

        report = cross_check([dot_product()], powerpc604())
        assert "ALL CONSISTENT" in report.render()


class TestRandomCorpus:
    def test_random_loops_consistent(self):
        machine = powerpc604()
        rng = random.Random(77)
        loops = [
            random_ddg(rng, machine, GeneratorConfig(min_ops=2, max_ops=6),
                       name=f"xc{i}")
            for i in range(8)
        ]
        report = cross_check(loops, machine, time_limit_per_t=10.0)
        assert report.all_consistent, report.problems()
