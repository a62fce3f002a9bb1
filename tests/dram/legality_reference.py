"""Object-walking legality reference model for the kernel differentials.

The simplest executable spec of "when may command X issue to
(rank, bank)?": ask the live bank, rank, and channel objects on every
query and fold their answers, plus any refresh blackout.  It keeps no
state of its own, so it stays correct even when tests mutate those
objects behind the kernel's back — which is exactly what makes it the
oracle for :class:`~repro.dram.legality.LegalityKernel`.
"""

from typing import Optional

from repro.dram.commands import CommandType
from repro.dram.dram_system import DramSystem


def earliest_issue_reference(
    dram: DramSystem, kind: CommandType, rank: int, bank: int
) -> Optional[int]:
    """Earliest legal cycle for ``kind`` at (rank, bank), or None."""
    bank_earliest = dram.ranks[rank].banks[bank].earliest_issue(kind)
    if bank_earliest is None:
        return None
    earliest = max(
        bank_earliest,
        dram.ranks[rank].earliest_issue(kind, bank),
        dram.channel.earliest_issue(kind),
    )
    if dram.refresh_end is not None:
        earliest = max(earliest, dram.refresh_end)
    return earliest
