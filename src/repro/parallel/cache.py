"""Empty: nothing is cached here any more.

Per-process reuse lives only in the store's memory tier,
:mod:`repro.store.tiering` (verified results).  The module stays
importable only because ``perfbench/spans.py`` imports it by name
before installing its wrappers; delete it together with that entry.
"""
