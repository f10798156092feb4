"""Certificate files: canonical serialization, hashing, replay support.

A certificate is a JSON tree with canonically ordered keys.  Timings
and the replay hash itself are volatile: they are excluded from the
hash and from replay comparison.

There is one replay rule, applied at two levels: re-run the producer on
the recorded inputs and demand the same payload.  For a certificate file
(`cicert --replay`) the producer is the recorded command, run with the
recorded seed and budgets, and the core payload must be byte-identical.
For a certificate object of the library, `Replayable.verify()` calls the
producing function on the object's recorded fields and compares
`payload()`.  Any tampering with a witness, a hash or an input is
detected, because the producer recomputes all of them.
"""

from __future__ import annotations

import hashlib
import json

SCHEMA = "cicert.certificate/1"
VOLATILE_KEYS = ("timings", "replay_hash")


class SchemaError(ValueError):
    """Unsupported or malformed certificate file."""


class Replayable:
    """verify() for certificate objects: `_rerun()` calls the producer on
    the recorded inputs, and the certificate holds when the fresh result
    has the same payload.  A producer that rejects the recorded inputs
    (ValueError) or finds nothing (None) does not reproduce it."""

    def verify(self) -> bool:
        try:
            fresh = self._rerun()
        except ValueError:
            return False
        return fresh is not None and fresh.payload() == self.payload()


def canonical_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def core_payload(payload: dict) -> dict:
    """The payload without its volatile keys; shares the values."""
    return {k: v for k, v in payload.items() if k not in VOLATILE_KEYS}


def replay_hash(payload: dict) -> str:
    text = canonical_json(core_payload(payload))
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


def finalize(payload: dict) -> dict:
    payload["schema"] = SCHEMA
    payload["replay_hash"] = replay_hash(payload)
    return payload


def dumps(payload: dict) -> str:
    return canonical_json(payload)


def write_certificate(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(payload))


def load_certificate(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not a certificate file: {exc}") from exc
    if not isinstance(payload, dict):
        raise SchemaError(f"not a certificate: top level is {type(payload).__name__}")
    if payload.get("schema") != SCHEMA:
        raise SchemaError(f"unsupported schema {payload.get('schema')!r}")
    return payload
