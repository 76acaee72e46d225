"""Tests for the command-line interface."""

import pathlib

import pytest

from repro.cli import main
from repro.ddg.builders import serialize_ddg
from repro.ddg.kernels import dot_product


class TestList:
    def test_lists_kernels_and_machines(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "motivating" in out
        assert "powerpc604" in out


class TestSchedule:
    def test_kernel_by_name(self, capsys):
        code = main([
            "schedule", "--kernel", "motivating", "--machine", "motivating",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "T_lb=3" in out
        assert "-> T=4" in out
        assert "K = [0, 0, 0, 1, 1, 2]'" in out

    def test_ddg_file(self, tmp_path, capsys):
        path = tmp_path / "loop.ddg"
        path.write_text(serialize_ddg(dot_product()), encoding="utf-8")
        code = main([
            "schedule", "--ddg", str(path), "--machine", "powerpc604",
        ])
        assert code == 0
        assert "dotprod" in capsys.readouterr().out

    def test_requires_input(self):
        with pytest.raises(SystemExit):
            main(["schedule", "--machine", "motivating"])

    def test_assembly_flag(self, capsys):
        main([
            "schedule", "--kernel", "dotprod", "--machine", "powerpc604",
            "--assembly",
        ])
        out = capsys.readouterr().out
        assert "KERNEL:" in out

    def test_listing_flag(self, capsys):
        main([
            "schedule", "--kernel", "dotprod", "--machine", "powerpc604",
            "--listing", "3",
        ])
        out = capsys.readouterr().out
        assert "Iter 2" in out

    def test_compare_heuristic_flag(self, capsys):
        main([
            "schedule", "--kernel", "daxpy", "--machine", "powerpc604",
            "--compare-heuristic",
        ])
        out = capsys.readouterr().out
        assert "heuristic (iterative modulo)" in out

    def test_bnb_backend(self, capsys):
        code = main([
            "schedule", "--kernel", "dotprod", "--machine", "powerpc604",
            "--backend", "bnb",
        ])
        assert code == 0

    def test_source_with_classes_and_machine_file(self, capsys):
        import pathlib

        root = pathlib.Path(__file__).resolve().parent.parent / "examples"
        code = main([
            "schedule",
            "--source", str(root / "loops" / "fir.loop"),
            "--machine-file", str(root / "dsp.machine"),
            "--classes", "add=mac,mul=mac",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "T_lb=5" in out

    def test_bad_classes_rejected(self):
        with pytest.raises(SystemExit, match="op=class"):
            main([
                "schedule", "--source", "whatever.loop",
                "--classes", "nonsense",
            ])

    def test_machine_file(self, tmp_path, capsys):
        from repro.machine.io import serialize_machine
        from repro.machine.presets import motivating_machine

        path = tmp_path / "m.machine"
        path.write_text(serialize_machine(motivating_machine()),
                        encoding="utf-8")
        code = main([
            "schedule", "--kernel", "motivating",
            "--machine-file", str(path),
        ])
        assert code == 0
        assert "-> T=4" in capsys.readouterr().out

    def test_explain_flag(self, capsys):
        main([
            "schedule", "--kernel", "motivating", "--machine",
            "motivating", "--explain",
        ])
        out = capsys.readouterr().out
        assert "T = 3: fixed FU assignment (coloring)" in out


class TestScheduleExtras:
    def test_registers_flag(self, capsys):
        main([
            "schedule", "--kernel", "dotprod", "--machine", "powerpc604",
            "--registers",
        ])
        out = capsys.readouterr().out
        assert "register pressure" in out
        assert "MaxLive" in out

    def test_export_lp(self, tmp_path, capsys):
        path = tmp_path / "model.lp"
        main([
            "schedule", "--kernel", "dotprod", "--machine", "powerpc604",
            "--export-lp", str(path),
        ])
        text = path.read_text(encoding="utf-8")
        assert "Subject To" in text
        assert "General" in text


class TestProfileCommand:
    def test_counters_are_store_tiers_and_context_registry(self, capsys):
        corpus = pathlib.Path(__file__).resolve().parent.parent / "corpus"
        code = main([
            "profile", "--ddg", str(corpus / "loop0000.ddg"),
            "--machine", "powerpc604", "--backend", "sat",
        ])
        assert code == 0
        out = capsys.readouterr().out
        _, counters = out.split("in-process caches (this run):\n")
        names = [line.split()[0] for line in counters.splitlines() if line]
        assert names == ["canonical", "entry", "incremental"]
        for gone in ("bounds", "formulation", "warmstart", "sat_encode"):
            assert gone not in counters


class TestAnalyzeCommand:
    def test_motivating_fp_analysis(self, capsys):
        assert main(["analyze", "--machine", "motivating"]) == 0
        out = capsys.readouterr().out
        assert "forbidden latencies: [1]" in out
        assert "MAL:                 2" in out

    def test_clean_machine(self, capsys):
        main(["analyze", "--machine", "clean"])
        out = capsys.readouterr().out
        assert "clean:               True" in out


class TestMotivatingCommand:
    def test_full_report(self, capsys):
        assert main(["motivating"]) == 0
        out = capsys.readouterr().out
        assert "all §2 claims hold: True" in out


class TestCorpusCommand:
    def test_dump_and_reschedule(self, tmp_path, capsys):
        out = tmp_path / "corpus"
        code = main([
            "corpus", "--out", str(out), "--count", "5", "--seed", "2",
        ])
        assert code == 0
        files = sorted(out.glob("*.ddg"))
        assert len(files) == 5
        assert "wrote 5 loops" in capsys.readouterr().out
        # Round-trip: schedule one dumped loop from disk.
        code = main([
            "schedule", "--ddg", str(files[0]), "--machine", "powerpc604",
        ])
        assert code == 0

    def test_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["corpus", "--out", str(out1), "--count", "3", "--seed", "9"])
        main(["corpus", "--out", str(out2), "--count", "3", "--seed", "9"])
        for f1, f2 in zip(sorted(out1.iterdir()), sorted(out2.iterdir())):
            assert f1.read_text() == f2.read_text()


class TestSuiteCommand:
    def test_small_suite(self, capsys):
        code = main([
            "suite", "--count", "8", "--seed", "3", "--time-limit", "5",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table 4" in out


class TestBackendRosterValidation:
    """``--backends`` is validated at the CLI boundary (PR 9)."""

    def _race(self, roster):
        return main([
            "race", "--kernel", "dotprod", "--machine", "powerpc604",
            "--backend", "portfolio", "--backends", roster,
            "--time-limit", "5",
        ])

    def test_unknown_backend_rejected(self):
        with pytest.raises(SystemExit) as err:
            self._race("highs,gurobi")
        assert "unknown backend 'gurobi'" in str(err.value)
        assert "choose from: highs, bnb, sat" in str(err.value)

    def test_duplicate_backend_rejected(self):
        with pytest.raises(SystemExit) as err:
            self._race("bnb,bnb")
        assert "lists 'bnb' twice" in str(err.value)

    def test_empty_roster_rejected(self):
        with pytest.raises(SystemExit) as err:
            self._race(" , ")
        assert "at least one backend" in str(err.value)

    def test_batch_shares_the_validation(self, tmp_path):
        path = tmp_path / "loop.ddg"
        path.write_text(serialize_ddg(dot_product()))
        with pytest.raises(SystemExit) as err:
            main([
                "batch", str(path), "--machine", "powerpc604",
                "--backend", "portfolio", "--backends", "cplex",
            ])
        assert "unknown backend 'cplex'" in str(err.value)

    def test_single_entry_roster_demotes_to_plain_race(self, capsys):
        # A one-backend "portfolio" is just that backend: no portfolio
        # fan-out, but the roster still validates and the named solver
        # runs.  (--no-warmstart so the solve reaches the backend at
        # all instead of settling on the heuristic.)
        code = main([
            "race", "--kernel", "dotprod", "--machine", "powerpc604",
            "--backend", "portfolio", "--backends", "bnb",
            "--time-limit", "5", "--no-warmstart",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "[bnb]" in out
        assert "portfolio [" not in out

    def test_explicit_roster_portfolio_races(self, capsys):
        code = main([
            "race", "--kernel", "dotprod", "--machine", "powerpc604",
            "--backend", "portfolio", "--backends", "highs,bnb",
            "--time-limit", "5", "--no-warmstart",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "portfolio [highs, bnb]" in out
