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

    def test_explain_skips_the_achieved_period(self, capsys):
        # The heuristic settles T=4; only T=3, which the sweep gave up
        # on, needs a diagnosis.
        main([
            "schedule", "--kernel", "motivating", "--machine",
            "motivating", "--objective", "feasibility", "--explain",
        ])
        out = capsys.readouterr().out
        assert "T=4: heuristic" in out
        assert "T = 3: fixed FU assignment (coloring)" in out
        assert "T = 4: feasible" not in out


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


class TestRemovedSwitches:
    @pytest.mark.parametrize("argv", [
        ["profile", "--kernel", "dotprod"],
        ["schedule", "--kernel", "dotprod", "--no-presolve"],
        ["race", "--kernel", "dotprod"],
        ["suite"],
    ])
    def test_rejected_by_the_parser(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


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


class TestBackendValidation:
    """Settings no solver could run are refused before any work."""

    def test_portfolio_is_not_a_backend(self, capsys):
        for command in ("schedule", "batch", "loadgen"):
            with pytest.raises(SystemExit) as err:
                main([command, "--backend", "portfolio"])
            assert err.value.code == 2
            assert "invalid choice: 'portfolio'" in capsys.readouterr().err

    def test_schedule_rejects_a_bad_time_limit(self):
        with pytest.raises(SystemExit) as err:
            main([
                "schedule", "--kernel", "dotprod", "--machine",
                "powerpc604", "--time-limit", "-1",
            ])
        assert "schedule: time_limit must be > 0" in str(err.value)

    def test_schedule_rejects_a_negative_max_extra(self):
        with pytest.raises(SystemExit) as err:
            main([
                "schedule", "--kernel", "dotprod", "--machine",
                "powerpc604", "--max-extra", "-1",
            ])
        assert "schedule: max_extra must be >= 0" in str(err.value)

    def test_batch_rejects_a_bad_time_limit(self, tmp_path):
        path = tmp_path / "loop.ddg"
        path.write_text(serialize_ddg(dot_product()))
        with pytest.raises(SystemExit) as err:
            main([
                "batch", str(path), "--machine", "powerpc604",
                "--time-limit", "nan",
            ])
        assert "batch: time_limit must be > 0" in str(err.value)

    def test_named_backend_tags_its_attempts(self, capsys):
        # --no-warmstart so the solve reaches the backend at all
        # instead of settling on the heuristic.
        code = main([
            "schedule", "--kernel", "dotprod", "--machine", "powerpc604",
            "--backend", "bnb", "--time-limit", "5", "--no-warmstart",
        ])
        assert code == 0
        assert "[bnb]" in capsys.readouterr().out
