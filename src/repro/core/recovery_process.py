"""The recovery process (Algorithm 4 of the paper).

When a failure occurs, an additional process is launched to orchestrate the
replay of messages according to phase numbers.  It collects three kinds of
reports from every application process:

* ``Log``      -- the phases of the logged messages the process will replay,
* ``Orphan``   -- the phase of every orphan message the process has delivered
  whose (rolled back) sender has not re-sent yet,
* ``OwnPhase`` -- the phase the process is currently in (for rolled back
  processes, the phase restored from the checkpoint).

It then releases work phase by phase: logged messages of phase ``p`` may be
replayed, and a process in phase ``p`` may send its first message, only when
no orphan message of a phase strictly lower than ``p`` remains outstanding.
Each time a rolled back process regenerates an orphan message it notifies the
recovery process instead of sending the message (the receiver already has
it); when the count of outstanding orphans of some phase drops to zero, the
next phases are released (lines 12-24 of Algorithm 4).

The orchestrator is deliberately written as a passive state machine: the
protocol delivers control messages to :meth:`RecoveryOrchestrator.handle` and
forwards the notifications returned by the internal release step through a
callback, so the message exchanges remain visible to the control-plane
accounting.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Optional, Set, Tuple

from repro.errors import ProtocolError


#: Notification kinds produced by the orchestrator.
NOTIFY_SEND_LOG = "notify_send_log"
NOTIFY_SEND_MSG = "notify_send_msg"


@dataclass
class RecoveryReport:
    """Summary of a finished recovery session (used by experiments)."""

    started_at: float
    completed_at: Optional[float] = None
    rolled_back_ranks: Tuple[int, ...] = ()
    orphan_messages: int = 0
    replay_phases: int = 0
    notifications_sent: int = 0


class RecoveryOrchestrator:
    """State machine implementing Algorithm 4."""

    def __init__(
        self,
        expected_ranks: Iterable[int],
        notify: Callable[[str, int, int], None],
        started_at: float = 0.0,
        rolled_back_ranks: Iterable[int] = (),
        on_complete: Optional[Callable[["RecoveryOrchestrator"], None]] = None,
    ) -> None:
        self.expected_ranks: Set[int] = set(expected_ranks)
        self._notify = notify
        self._on_complete = on_complete

        #: NbOrphanPhase[phase]: outstanding orphan messages in that phase.
        self.orphans_per_phase: Counter = Counter()
        #: ProcessPhase[phase]: ranks whose first send is gated on that phase.
        self.process_phase: Dict[int, Set[int]] = {}
        #: MsgLogPhase[phase]: ranks holding logged messages of that phase.
        self.log_phase: Dict[int, Set[int]] = {}

        self._log_reports: Set[int] = set()
        self._orphan_reports: Set[int] = set()
        self._phase_reports: Set[int] = set()
        self._started_notifications = False
        self._completed = False

        self.report = RecoveryReport(
            started_at=started_at, rolled_back_ranks=tuple(sorted(rolled_back_ranks))
        )

    # ------------------------------------------------------------------ input
    def handle(self, kind: str, sender: int, data: Dict) -> None:
        """Process one control message addressed to the recovery process."""
        if self._completed:
            raise ProtocolError(
                f"recovery process received {kind!r} from rank {sender} after completion"
            )
        if kind == "log_report":
            self._handle_log(sender, data.get("phases", []))
        elif kind == "orphan_report":
            self._handle_orphan(sender, data.get("phases", []))
        elif kind == "own_phase":
            self._handle_own_phase(sender, data["phase"])
        elif kind == "orphan_notification":
            self._handle_orphan_notification(sender, data["phase"])
        else:
            raise ProtocolError(f"recovery process: unknown control message kind {kind!r}")

    def _handle_log(self, sender: int, phases: Iterable[int]) -> None:
        self._log_reports.add(sender)
        for phase in phases:
            self.log_phase.setdefault(int(phase), set()).add(sender)
        self._maybe_start()

    def _handle_orphan(self, sender: int, phases: Iterable[int]) -> None:
        self._orphan_reports.add(sender)
        for phase in phases:
            self.orphans_per_phase[int(phase)] += 1
            self.report.orphan_messages += 1
        self._maybe_start()

    def _handle_own_phase(self, sender: int, phase: int) -> None:
        self._phase_reports.add(sender)
        self.process_phase.setdefault(int(phase), set()).add(sender)
        self._maybe_start()

    def _handle_orphan_notification(self, sender: int, phase: int) -> None:
        phase = int(phase)
        if self.orphans_per_phase.get(phase, 0) <= 0:
            raise ProtocolError(
                f"recovery process: orphan notification for phase {phase} from rank {sender} "
                "but no outstanding orphan is recorded for that phase (dates/phases diverged "
                "between the original execution and the re-execution)"
            )
        self.orphans_per_phase[phase] -= 1
        if self.orphans_per_phase[phase] == 0:
            del self.orphans_per_phase[phase]
            if self._started_notifications:
                self._release_phases()
        self._check_completion()

    # --------------------------------------------------------------- releases
    def all_reports_received(self) -> bool:
        return (
            self._log_reports >= self.expected_ranks
            and self._orphan_reports >= self.expected_ranks
            and self._phase_reports >= self.expected_ranks
        )

    def _maybe_start(self) -> None:
        if self._started_notifications or not self.all_reports_received():
            return
        self._started_notifications = True
        self._release_phases()
        self._check_completion()

    def _min_blocking_phase(self) -> Optional[int]:
        """Smallest phase that still has outstanding orphans (None if none)."""
        if not self.orphans_per_phase:
            return None
        return min(self.orphans_per_phase)

    def _release_phases(self) -> None:
        """Send every notification whose phase has no lower outstanding orphan.

        Mirrors the two loops of ``NotifyPhase`` (Algorithm 4 lines 16-24):
        a phase ``p`` is releasable iff there is no phase ``p' < p`` with
        outstanding orphan messages.
        """
        blocking = self._min_blocking_phase()

        def releasable(phase: int) -> bool:
            return blocking is None or phase <= blocking

        for phase in sorted(self.log_phase):
            if not releasable(phase):
                break
            for rank in sorted(self.log_phase[phase]):
                self._notify(NOTIFY_SEND_LOG, rank, phase)
                self.report.notifications_sent += 1
            self.report.replay_phases += 1
            del self.log_phase[phase]

        for phase in sorted(self.process_phase):
            if not releasable(phase):
                break
            for rank in sorted(self.process_phase[phase]):
                self._notify(NOTIFY_SEND_MSG, rank, phase)
                self.report.notifications_sent += 1
            del self.process_phase[phase]

    # ------------------------------------------------------------- completion
    @property
    def complete(self) -> bool:
        return self._completed

    def _check_completion(self) -> None:
        if self._completed or not self._started_notifications:
            return
        if self.orphans_per_phase or self.process_phase or self.log_phase:
            return
        self._completed = True
        if self._on_complete is not None:
            self._on_complete(self)
