"""Command-line front end: single sessions (transcript) or batches (stats).

Output is a pure function of the arguments: the seed defaults to 0 (or the
SEMIQ_SEED environment variable), never the clock, so identical invocations
are byte-identical.  An invocation imports only what it runs: the one
protocol runner ``--protocol`` names, and no reference simulator.
"""
from __future__ import annotations

import argparse
import os
import sys

from . import analysis
from .adversary import AttackKind, AttackStrategy
from .protocols import PROTOCOLS, SessionConfig, hex_to_bits, make_config, run_session
from .records import Record, replace

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2


class CliConfig(Record):
    session: SessionConfig
    trials: int
    format: str
    out: str | None


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="semiquantum",
        description="Run semi-quantum protocol sessions or Monte Carlo batches.",
    )
    p.add_argument("--protocol", required=True, choices=tuple(PROTOCOLS))
    p.add_argument("--n", type=int, required=True, help="key/message length in bits")
    p.add_argument("--m", type=int, default=None, help="decoy count (default 3n)")
    p.add_argument("--attack", choices=sorted(a.value for a in AttackKind), default="none")
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--seed", type=int, default=None, help="64-bit seed (default SEMIQ_SEED or 0)")
    p.add_argument("--threshold", type=float, default=0.0)
    p.add_argument("--permutation", choices=("on", "off"), default="on")
    p.add_argument("--commitments", choices=("on", "off"), default="on",
                   help="key agreement and distribution only")
    p.add_argument("--out", default=None, help="write output to this path (atomic)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument(
        "--messages",
        default=None,
        help="comma-separated hex messages: one for controlled communication, alice,bob for dialogue",
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
            raise ValueError(f"SEMIQ_SEED must be an integer, got {raw!r}") from None
    if not 0 <= seed < 2**64:
        raise ValueError(f"{source} must lie in [0, 2**64), got {seed}")
    if ns.trials < 1:
        raise ValueError("--trials must be >= 1")
    config = make_config(ns.protocol, n=ns.n, m=ns.m, seed=seed, threshold=ns.threshold,
                         attack=AttackStrategy(ns.attack), permutation_enabled=ns.permutation == "on")
    if hasattr(config, "commitments_enabled"):
        config = replace(config, commitments_enabled=ns.commitments == "on")
    if ns.messages is not None:
        messages = [s.strip() for s in ns.messages.split(",")]
        names = config.MESSAGES
        if len(messages) != len(names):
            raise ValueError(f"{ns.protocol} takes {len(names)} --messages, got {len(messages)}")
        config = replace(config, **{name: hex_to_bits(msg, ns.n) for name, msg in zip(names, messages)})
    if ns.trials == 1 and ns.format == "csv":
        raise ValueError("single-session transcripts are json only")
    return CliConfig(config, ns.trials, ns.format, ns.out)


def _write_atomic(path: str, payload: bytes) -> None:
    import tempfile  # here, off the imports of a run that writes no file

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
    if cfg.trials == 1:
        return analysis.emit_transcript(run_session(cfg.session))
    stats = analysis.run_trials(cfg.session, cfg.trials, cfg.session.seed)
    return analysis.emit_stats(stats, cfg.format)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        cfg = parse_args(argv)
    except ValueError as exc:  # a flag's value, or one a config record refuses
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
