"""Certificate files: canonical serialization, hashing, replay support.

A certificate is a JSON tree with canonically ordered keys.  Timings
and the replay hash itself are volatile: they are excluded from the
hash and from replay comparison.  Its bytes are those of
`canonical_json`: UTF-8, keys sorted, a two-space indent, `": "` after
each key, non-ASCII text unescaped and one trailing newline, the text
`json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False)`
gives, written directly.

There is one replay rule, applied at two levels: re-run the producer on
the recorded inputs and demand the same payload.  For a certificate file
(`cicert --replay`) the producer is the recorded command, run with the
recorded seed and budgets, and the core payload must be byte-identical.
For a certificate object of the library, `Replayable.verify()` calls the
producing function on the object's recorded fields and compares
`payload()`.  Any tampering with a witness, a hash or an input is
detected, because the producer recomputes all of them.  Each certificate
class has one producer, the function its `_rerun` calls, and no other
code constructs it; so `verify()` re-runs the very code that made the
object, and a check is verified exactly when its outcome is `Replayable`.
"""

from __future__ import annotations

import hashlib
import json
from json.encoder import encode_basestring as _quote

SCHEMA = "cicert.certificate/1"
VOLATILE_KEYS = ("timings", "replay_hash")
_INFINITY = float("inf")


class SchemaError(ValueError):
    """Unsupported or malformed certificate file."""


class Replayable:
    """verify() for certificate objects: `_rerun()` calls the producer on
    the recorded inputs, and the certificate holds when the fresh result
    has the same payload.  The producer is the one function that
    constructs the subclass.  A producer that rejects the recorded inputs
    (ValueError) or finds nothing (None) does not reproduce it."""

    def verify(self) -> bool:
        try:
            fresh = self._rerun()
        except ValueError:
            return False
        return fresh is not None and fresh.payload() == self.payload()


def canonical_json(payload: dict) -> str:
    """The canonical text of a JSON value: dicts with str keys, lists and
    tuples, str, int, float (NaN and the infinities as `json` writes
    them), bool and None.  Any other value raises TypeError."""
    chunks = []
    _write(payload, chunks.append, "\n")
    chunks.append("\n")
    return "".join(chunks)


def _write(value, emit, newline):
    """Emit the text of `value`, whose nested lines start with `newline`."""
    if isinstance(value, str):
        emit(_quote(value))
    elif value is None:
        emit("null")
    elif value is True:
        emit("true")
    elif value is False:
        emit("false")
    elif isinstance(value, int):
        emit(int.__repr__(value))
    elif isinstance(value, float):
        if value != value:
            emit("NaN")
        elif value == _INFINITY:
            emit("Infinity")
        elif value == -_INFINITY:
            emit("-Infinity")
        else:
            emit(float.__repr__(value))
    elif isinstance(value, dict):
        if not value:
            emit("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {key.__class__.__name__}")
            emit(sep)
            emit(_quote(key))
            emit(": ")
            _write(value[key], emit, inner)
            sep = "," + inner
        emit(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            emit("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            emit(sep)
            _write(item, emit, inner)
            sep = "," + inner
        emit(newline + "]")
    else:
        raise TypeError(f"Object of type {value.__class__.__name__} "
                        f"is not JSON serializable")


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
