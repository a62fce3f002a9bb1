"""A tests-side probe that records every command a controller issues."""

from collections import namedtuple

from repro.probe import Probe

#: What issued, where, when, and on behalf of which thread (None for
#: auto-precharges of unowned rows).
LoggedCommand = namedtuple(
    "LoggedCommand", ["cycle", "kind", "rank", "bank", "row", "thread"]
)


class CommandLog(Probe):
    """Records every command a controller issues, in issue order."""

    def __init__(self):
        self.commands = []

    def on_command(self, scheduler, cand, now):
        self.commands.append(
            LoggedCommand(
                now, cand.kind, cand.rank, cand.bank, cand.row,
                cand.charge_thread,
            )
        )


def log_commands(controller):
    """Attach a :class:`CommandLog` to ``controller``; return it."""
    log = CommandLog()
    controller.probe = log
    return log
