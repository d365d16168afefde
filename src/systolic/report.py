"""Uniform result records and deterministic rendering.

JSON output is byte-stable across runs for the same input and options,
except for the ``wall_ms`` timing fields; ``strip_timing`` removes those so
reports can be compared exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from .verdict import Verdict, witness_jsonable


@dataclass
class CheckRecord:
    """One check's outcome on one target."""

    check: str
    target: str
    verdict: str
    reason: str = ""
    witness: Any = None
    detail: dict = field(default_factory=dict)
    trusted_region: bool = False
    wall_ms: float = 0.0

    @staticmethod
    def from_verdict(
        check: str,
        target: str,
        v: Verdict,
        trusted_region: bool,
        wall_ms: float,
    ) -> "CheckRecord":
        return CheckRecord(
            check=check,
            target=target,
            verdict=v.answer,
            reason=v.reason,
            witness=witness_jsonable(v.witness),
            detail={k: witness_jsonable(val) for k, val in sorted(v.detail.items())},
            trusted_region=trusted_region,
            wall_ms=wall_ms,
        )

    def jsonable(self) -> dict:
        return {
            "check": self.check,
            "target": self.target,
            "verdict": self.verdict,
            "reason": self.reason,
            "witness": self.witness,
            "detail": self.detail,
            "trusted_region": self.trusted_region,
            "wall_ms": round(self.wall_ms, 3),
        }


def render_json(records: list[CheckRecord], config: dict) -> str:
    payload = {
        "config": {k: config[k] for k in sorted(config)},
        "records": [r.jsonable() for r in records],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def render_text(records: list[CheckRecord], config: dict) -> str:
    lines = []
    opts = " ".join(f"{k}={config[k]}" for k in sorted(config))
    if opts:
        lines.append(f"# {opts}")
    for r in records:
        scope_note = "trusted-region" if r.trusted_region else "whole-complex"
        head = f"{r.check:<18} {r.target:<28} {r.verdict:<8} [{scope_note}]"
        if r.reason:
            head += f"  {r.reason}"
        lines.append(head)
        if r.witness is not None:
            lines.append(f"    witness: {json.dumps(r.witness, sort_keys=True)}")
        if r.detail:
            compact = json.dumps(r.detail, sort_keys=True)
            if len(compact) <= 400:
                lines.append(f"    detail: {compact}")
            else:
                lines.append(f"    detail: ({len(compact)} bytes, use --format json)")
        lines.append(f"    wall_ms: {r.wall_ms:.3f}")
    return "\n".join(lines) + "\n"


def strip_timing(rendered_json: str) -> str:
    """Remove wall_ms fields so two reports can be compared byte for byte."""
    payload = json.loads(rendered_json)
    for rec in payload.get("records", []):
        rec.pop("wall_ms", None)
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
