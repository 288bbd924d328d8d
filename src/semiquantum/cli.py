"""Command-line front end: single sessions (transcript) or batches (stats).

Output is a pure function of the arguments: the seed defaults to 0 (or the
SEMIQ_SEED environment variable), never the clock, so identical invocations
are byte-identical.
"""
from __future__ import annotations

import argparse
import os
import sys
import tempfile
from dataclasses import dataclass

from . import analysis
from .adversary import AttackKind, AttackStrategy
from .protocols import (
    CdssqcConfig,
    CdssqcVariant,
    SessionConfig,
    SqdConfig,
    SqkaConfig,
    hex_to_bits,
    run_session,
)

PROTOCOLS = ("sqka", "sqkd", "cdssqc-ghz", "cdssqc-switch", "sqd")
ATTACKS = {a.value: a for a in AttackKind}

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2


class ValidationError(ValueError):
    pass


@dataclass(frozen=True)
class CliConfig:
    protocol: str
    n: int
    m: int | None
    attack: AttackKind
    trials: int
    seed: int
    threshold: float
    permutation: bool
    commitments: bool
    out: str | None
    format: str
    messages: tuple[str, ...]


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="semiquantum",
        description="Run semi-quantum protocol sessions or Monte Carlo batches.",
    )
    p.add_argument("--protocol", required=True, choices=PROTOCOLS)
    p.add_argument("--n", type=int, required=True, help="key/message length in bits")
    p.add_argument("--m", type=int, default=None, help="decoy count (default 3n)")
    p.add_argument("--attack", choices=sorted(ATTACKS), default="none")
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--seed", type=int, default=None, help="64-bit seed (default SEMIQ_SEED or 0)")
    p.add_argument("--threshold", type=float, default=0.0)
    p.add_argument("--permutation", choices=("on", "off"), default="on")
    p.add_argument("--commitments", choices=("on", "off"), default="on")
    p.add_argument("--out", default=None, help="write output to this path (atomic)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument(
        "--messages",
        default=None,
        help="comma-separated hex messages: one for cdssqc, alice,bob for sqd",
    )
    return p


def parse_args(argv: list[str]) -> CliConfig:
    ns = _build_parser().parse_args(argv)
    seed, source = ns.seed, "--seed"
    if seed is None:
        raw, source = os.environ.get("SEMIQ_SEED", "0"), "SEMIQ_SEED"
        try:
            seed = int(raw)
        except ValueError:
            raise ValidationError(f"SEMIQ_SEED must be an integer, got {raw!r}") from None
    if not 0 <= seed < 2**64:
        raise ValidationError(f"{source} must lie in [0, 2**64), got {seed}")
    if ns.n < 1:
        raise ValidationError("--n must be >= 1")
    if ns.m is not None and ns.m < 1:
        raise ValidationError("--m must be >= 1")
    if ns.trials < 1:
        raise ValidationError("--trials must be >= 1")
    if not 0.0 <= ns.threshold <= 1.0:
        raise ValidationError("--threshold must lie in [0, 1]")
    messages: tuple[str, ...] = ()
    if ns.messages is not None:
        messages = tuple(s.strip() for s in ns.messages.split(","))
        if ns.protocol in ("cdssqc-ghz", "cdssqc-switch") and len(messages) != 1:
            raise ValidationError("cdssqc takes exactly one message")
        if ns.protocol == "sqd" and len(messages) != 2:
            raise ValidationError("sqd takes exactly two messages: alice,bob")
        if ns.protocol in ("sqka", "sqkd"):
            raise ValidationError(f"--messages is not accepted for {ns.protocol}")
        for msg in messages:
            try:
                hex_to_bits(msg, ns.n)
            except ValueError as exc:
                raise ValidationError(f"bad message {msg!r}: {exc}") from exc
    if ns.trials == 1 and ns.format == "csv":
        raise ValidationError("single-session transcripts are json only")
    return CliConfig(
        protocol=ns.protocol,
        n=ns.n,
        m=ns.m,
        attack=ATTACKS[ns.attack],
        trials=ns.trials,
        seed=seed,
        threshold=ns.threshold,
        permutation=ns.permutation == "on",
        commitments=ns.commitments == "on",
        out=ns.out,
        format=ns.format,
        messages=messages,
    )


def _session_config(cfg: CliConfig) -> SessionConfig:
    strategy = AttackStrategy(kind=cfg.attack)
    if cfg.protocol in ("sqka", "sqkd"):
        return SqkaConfig(
            n=cfg.n,
            m=cfg.m,
            seed=cfg.seed,
            attack=strategy,
            commitments_enabled=cfg.commitments,
            permutation_enabled=cfg.permutation,
            threshold=cfg.threshold,
            protocol=cfg.protocol,
        )
    if cfg.protocol in ("cdssqc-ghz", "cdssqc-switch"):
        variant = (
            CdssqcVariant.GHZ_LIKE if cfg.protocol == "cdssqc-ghz" else CdssqcVariant.SWITCH
        )
        message = hex_to_bits(cfg.messages[0], cfg.n) if cfg.messages else None
        return CdssqcConfig(
            n=cfg.n,
            m=cfg.m,
            variant=variant,
            seed=cfg.seed,
            attack=strategy,
            threshold=cfg.threshold,
            permutation_enabled=cfg.permutation,
            message=message,
        )
    alice = hex_to_bits(cfg.messages[0], cfg.n) if cfg.messages else None
    bob = hex_to_bits(cfg.messages[1], cfg.n) if cfg.messages else None
    return SqdConfig(
        n=cfg.n,
        m=cfg.m,
        alice_message=alice,
        bob_message=bob,
        seed=cfg.seed,
        attack=strategy,
        threshold=cfg.threshold,
        permutation_enabled=cfg.permutation,
    )


def _write_atomic(path: str, payload: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".semiquantum-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def run(cfg: CliConfig) -> bytes:
    session = _session_config(cfg)
    if cfg.trials == 1:
        outcome = run_session(session)
        return analysis.emit_transcript(outcome, "json")
    stats = analysis.run_trials(session, cfg.trials, cfg.seed)
    return analysis.emit_stats(stats, cfg.format)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        cfg = parse_args(argv)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # argparse usage errors
        return int(exc.code) if exc.code else EXIT_OK
    try:
        payload = run(cfg)
    except MemoryError:
        return out_of_memory()
    if cfg.out is not None:
        try:
            _write_atomic(cfg.out, payload)
        except OSError as exc:
            print(f"error: cannot write {cfg.out!r}: {exc}", file=sys.stderr)
            return EXIT_IO
    else:
        try:
            sys.stdout.write(payload.decode())
            sys.stdout.flush()
        except OSError as exc:
            return stdout_failed(exc)
    return EXIT_OK


def stdout_failed(exc: OSError) -> int:
    """Report a failed write to stdout (a closed pipe, a full disk) in one
    ``error:`` line and return EXIT_IO.  What is left in stdout's buffer goes
    to devnull, so the flush at interpreter exit raises nothing more."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    print(f"error: cannot write to stdout: {exc}", file=sys.stderr)
    return EXIT_IO


def out_of_memory() -> int:
    """Report a run whose registers do not fit in memory (a huge ``--n`` or
    ``--m``) in one ``error:`` line and return EXIT_IO."""
    print("error: out of memory: a session this large does not fit", file=sys.stderr)
    return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
