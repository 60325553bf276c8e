"""Detect and quantify gate-history memory in quantum processors.

The package reconstructs quantum channels from measurement counts,
tests whether sequential gates compose independently, and scores the
memory with CP-violation, averaged and worst-case channel distances, a
memory-length scan, and a relative-entropy proxy, all validated against
a built-in system-environment simulator with a tunable memory coupling.

Each public name is imported from the submodule that defines it
(``from gatemem.nonmarkov import memory_scan``).  ``import gatemem``
imports no submodule, so a command line process pays only for the
modules its command runs.
"""
