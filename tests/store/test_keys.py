"""Content-addressed key construction: canonical machine digests."""

from repro.core.scheduler import AttemptConfig
from repro.machine.machine import Machine
from repro.machine.presets import motivating_machine
from repro.machine.reservation import ReservationTable
from repro.store.keys import (
    canonical_machine_digest,
    config_fingerprint,
    store_key,
)


def _renamed_motivating() -> Machine:
    """The motivating machine with every name changed, content intact."""
    m = Machine("other-name")
    fp_table = ReservationTable.from_rows([1, 0, 0], [0, 1, 0], [0, 1, 1])
    m.add_fu_type("ALU_X", count=2, table=fp_table)
    m.add_fu_type("LSU_Y", count=1, table=ReservationTable.clean(3))
    # Op classes keep their names (the DDG references them); only the
    # machine/FU naming differs.
    m.add_op_class("fadd", "ALU_X", latency=2)
    m.add_op_class("fmul", "ALU_X", latency=2)
    m.add_op_class("load", "LSU_Y", latency=3)
    m.add_op_class("store", "LSU_Y", latency=1)
    return m


class TestCanonicalMachineDigest:
    def test_invariant_to_machine_and_fu_names(self):
        assert canonical_machine_digest(
            motivating_machine()
        ) == canonical_machine_digest(_renamed_motivating())

    def test_sensitive_to_fu_count(self):
        assert canonical_machine_digest(
            motivating_machine(fp_units=2)
        ) != canonical_machine_digest(motivating_machine(fp_units=3))

    def test_sensitive_to_latency(self):
        m = Machine("m")
        m.add_fu_type("FP", count=1, table=ReservationTable.clean(2))
        m.add_op_class("fadd", "FP", latency=2)
        n = Machine("m")
        n.add_fu_type("FP", count=1, table=ReservationTable.clean(2))
        n.add_op_class("fadd", "FP", latency=4)
        assert canonical_machine_digest(m) != canonical_machine_digest(n)

    def test_sensitive_to_binding_structure(self):
        # Two classes sharing one FU type compete for its copies; the
        # same classes on separate identical FU types do not.  The
        # digests must differ even though each class sees an identical
        # (count, table) locally.
        shared = Machine("shared")
        shared.add_fu_type("FU", count=1, table=ReservationTable.clean(2))
        shared.add_op_class("fadd", "FU", latency=2)
        shared.add_op_class("fmul", "FU", latency=2)
        split = Machine("split")
        split.add_fu_type("FU_A", count=1, table=ReservationTable.clean(2))
        split.add_fu_type("FU_B", count=1, table=ReservationTable.clean(2))
        split.add_op_class("fadd", "FU_A", latency=2)
        split.add_op_class("fmul", "FU_B", latency=2)
        assert canonical_machine_digest(shared) != canonical_machine_digest(
            split
        )


class TestFingerprintAndKey:
    def test_semantic_fields_partition_keys(self):
        base = AttemptConfig()
        fp = config_fingerprint(base, max_extra=10)
        for variant in (
            AttemptConfig(objective="min_sum_t"),
            AttemptConfig(mapping=False),
            AttemptConfig(repair_modulo=True),
        ):
            assert config_fingerprint(variant, 10) != fp
        assert config_fingerprint(base, 5) != fp

    def test_speed_knobs_do_not_partition_keys(self):
        # Backend, budget and warm-start change how fast the
        # answer arrives, not what it is (pinned by the differential
        # suites) — they stay out of the key.
        base = config_fingerprint(AttemptConfig(), 10)
        for variant in (
            AttemptConfig(backend="sat"),
            AttemptConfig(time_limit=1.0),
            AttemptConfig(warmstart=False),
        ):
            assert config_fingerprint(variant, 10) == base

    def test_store_key_depends_on_all_parts(self):
        fp = config_fingerprint(AttemptConfig(), 10)
        key = store_key("d1", "m1", fp)
        assert store_key("d2", "m1", fp) != key
        assert store_key("d1", "m2", fp) != key
        assert store_key(
            "d1", "m1", config_fingerprint(AttemptConfig(), 4)
        ) != key
