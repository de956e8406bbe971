"""Replayable failure capsules.

Two kinds live here:

* :class:`DivergenceCapsule` — a snapshot taken when ``AlarmLog.
  raise_alarm`` goes off mid-run: the divergence report, the last-N ring
  events, and the full recording so far, whose replay must re-raise the
  *same* alarm at the *same* guest PC.
* :class:`ScenarioCapsule` — the output of `repro.sim`'s shrinker: a
  minimized scenario dict plus the failure signature and combined digest
  of its final run.  Replay re-derives the whole run from the scenario
  (scenarios are pure functions of their seeds — nothing is played back)
  and must reproduce the identical outcome class *and* bit-identical
  digests.

Both turn a one-in-a-thousand failure into a deterministic unit test you
can ship in a bug report.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.schema import check_version, load

CAPSULE_VERSION = 1


@dataclass
class CapsuleReplayResult:
    """Verdict of replaying a capsule: did the same alarm come back?"""

    reproduced: bool                 # same alarm kind at the same guest PC
    replay_ok: bool                  # full bit-identical replay
    matched_alarm: Optional[Dict] = None
    mismatches: List[str] = field(default_factory=list)

    def summary(self) -> str:
        if self.reproduced:
            alarm = self.matched_alarm or {}
            pc = alarm.get("guest_pc", -1)
            return (f"capsule reproduced: {alarm.get('kind')} at "
                    f"pc={pc:#x} (replay "
                    f"{'bit-identical' if self.replay_ok else 'diverged'})")
        lines = ["capsule NOT reproduced"]
        lines += [f"  - {m}" for m in self.mismatches[:20]]
        return "\n".join(lines)


@dataclass
class DivergenceCapsule:
    """Alarm report + event window + the full recording that led there."""

    report: Dict
    window: List[Dict]
    trace: Dict
    version: int = CAPSULE_VERSION

    @classmethod
    def from_recording(cls, recorder, report, window) -> "DivergenceCapsule":
        return cls(
            report={"kind": report.kind.name, "seq": report.seq,
                    "libc_name": report.libc_name,
                    "task_id": report.task_id,
                    "guest_pc": report.guest_pc,
                    "detail": report.detail},
            window=recorder.ring.to_dicts(window),
            trace=recorder.build_trace().to_dict())

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> Dict:
        return {"version": self.version, "report": self.report,
                "window": self.window, "trace": self.trace}

    @staticmethod
    def from_dict(raw) -> "DivergenceCapsule":
        """Load a capsule document; ``ValueError`` if it is malformed."""
        check_version(raw, CAPSULE_VERSION, "capsule")
        return load(DivergenceCapsule, raw, "capsule")

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, sort_keys=True)

    @staticmethod
    def load(path: str) -> "DivergenceCapsule":
        with open(path, "r", encoding="utf-8") as fh:
            return DivergenceCapsule.from_dict(json.load(fh))

    # -- replay --------------------------------------------------------------

    def replay(self) -> CapsuleReplayResult:
        """Re-execute the embedded trace and check the alarm comes back
        with the same kind at the same guest PC."""
        from repro.trace.record import Trace
        from repro.trace.replay import replay_trace

        result = replay_trace(Trace.from_dict(self.trace))
        want_kind = self.report.get("kind")
        want_pc = self.report.get("guest_pc")
        matched = None
        for alarm in result.replayed_footer.get("alarms", []):
            if (alarm.get("kind") == want_kind
                    and alarm.get("guest_pc") == want_pc):
                matched = alarm
                break
        mismatches = list(result.mismatches)
        if matched is None:
            mismatches.insert(0, (
                f"no replayed alarm matches {want_kind} at "
                f"pc={want_pc:#x}; replay raised "
                f"{[a.get('kind') for a in result.replayed_footer.get('alarms', [])]}"))
        return CapsuleReplayResult(reproduced=matched is not None,
                                   replay_ok=result.ok,
                                   matched_alarm=matched,
                                   mismatches=mismatches)


SIM_CAPSULE_VERSION = 1


@dataclass
class SimReplayResult:
    """Verdict of replaying a scenario capsule."""

    reproduced: bool                 # same failure signature
    bit_identical: bool              # same combined digest
    klass: str = ""
    digest: str = ""
    mismatches: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.reproduced and self.bit_identical

    def summary(self) -> str:
        if self.ok:
            return (f"capsule reproduced: {self.klass} "
                    f"(digest {self.digest[:16]}, bit-identical)")
        lines = ["capsule NOT reproduced" if not self.reproduced
                 else "capsule reproduced but digests diverged"]
        lines += [f"  - {m}" for m in self.mismatches[:20]]
        return "\n".join(lines)


@dataclass
class ScenarioCapsule:
    """A minimal failing sim scenario, self-contained and replayable.

    ``scenario`` is the shrunk scenario dict (including any explicit
    fault plan and armed mutation); ``original`` is the scenario the
    swarm first caught; ``signature`` is the failure signature both must
    produce; ``digest``/``digests`` pin the shrunk run bit-for-bit;
    ``shrink_steps`` logs every reduction the shrinker tried."""

    scenario: Dict
    original: Dict
    signature: Dict
    digest: str
    digests: Dict
    shrink_steps: List[Dict]
    meta: Dict
    version: int = SIM_CAPSULE_VERSION

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> Dict:
        return {"version": self.version, "kind": "sim-scenario",
                "scenario": self.scenario, "original": self.original,
                "signature": self.signature, "digest": self.digest,
                "digests": self.digests,
                "shrink_steps": self.shrink_steps, "meta": self.meta}

    @staticmethod
    def from_dict(raw) -> "ScenarioCapsule":
        """Load a sim capsule document; ``ValueError`` if malformed."""
        check_version(raw, SIM_CAPSULE_VERSION, "sim capsule")
        return load(ScenarioCapsule, raw, "sim capsule", ignore=("kind",))

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, sort_keys=True)

    @staticmethod
    def load(path: str) -> "ScenarioCapsule":
        with open(path, "r", encoding="utf-8") as fh:
            return ScenarioCapsule.from_dict(json.load(fh))

    # -- replay --------------------------------------------------------------

    def replay(self) -> SimReplayResult:
        """Re-derive the shrunk scenario from its seeds and compare the
        failure signature and the combined digest bit-for-bit."""
        from repro.sim.runner import run_scenario
        from repro.sim.scenario import Scenario
        from repro.sim.shrink import signature_of

        outcome = run_scenario(Scenario.from_dict(dict(self.scenario)))
        signature = signature_of(outcome)
        mismatches: List[str] = []
        if signature != self.signature:
            mismatches.append(
                f"signature: capsule {self.signature!r} "
                f"!= replay {signature!r}")
        if outcome.digest != self.digest:
            for key in sorted(set(outcome.digests)
                              | set(self.digests)):
                want = self.digests.get(key)
                got = outcome.digests.get(key)
                if want != got:
                    mismatches.append(
                        f"digest.{key}: capsule {want!r} != replay "
                        f"{got!r}")
        return SimReplayResult(
            reproduced=signature == self.signature,
            bit_identical=outcome.digest == self.digest,
            klass=outcome.klass, digest=outcome.digest,
            mismatches=mismatches)
