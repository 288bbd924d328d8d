"""Key agreement between a quantum Alice and a classical Bob.

Alice distributes halves of psi+ pairs; Bob either measures-and-replaces
(encoding his raw key XOR his outcomes) or reflects, then returns the
whole string under a secret permutation.  Decoys are Bell-checked against
their home partners, Alice announces her raw key, Bob discloses the
encoded-slot permutation, and both sides end with K_f = K_A xor K_B.

``run_sqkd`` is the reduction where Alice never announces her key and the
final secret is Bob's raw key alone, decoded by Alice from the pair
correlations.
"""
from __future__ import annotations

from ..parties import ClassicalAction, choose_actions, commit, verify
from ..qsim import BellKind
from ..records import replace
from .common import (
    HOME, AbortReason, Bits, RawKeys, Session, SessionConfig, SessionOutcome, expect, xor_bits
)


class SqkaConfig(SessionConfig):
    """A key-agreement session: ``protocol`` is "sqka" or its reduction "sqkd"."""

    BITS = ("fixed_k_a", "fixed_k_b", "dishonest_k_a")
    commitments_enabled: bool = True
    protocol: str = "sqka"
    # test hooks
    fixed_k_a: Bits | None = None
    fixed_k_b: Bits | None = None
    dishonest_k_a: Bits | None = None
    dishonest_pi_n: bool = False

    def __post_init__(self):
        super().__post_init__()
        if self.protocol not in ("sqka", "sqkd"):
            raise ValueError(f"SqkaConfig runs sqka or sqkd, not {self.protocol!r}")


def extract_bob_key_bit(r_a: int, travel_outcome: int) -> int:
    """Bob's key bit from one encoded slot, valid for initial psi+ pairs."""
    return r_a ^ travel_outcome


def run_sqka(config: SqkaConfig) -> SessionOutcome:
    expect(config, "sqka")
    return _run_keyed(config)


def run_sqkd(config: SqkaConfig) -> SessionOutcome:
    """Deterministic key-distribution reduction: Alice never announces K_A."""
    expect(config, "sqkd")
    return _run_keyed(config)


def _run_keyed(config: SqkaConfig) -> SessionOutcome:
    session = Session(config, classical="bob")
    alice, bob, transcript = session.alice, session.bob, session.transcript
    n = session.n
    announce_key = config.protocol == "sqka"
    k_a = session.given_or_drawn(alice, "fixed_k_a")
    k_b = session.given_or_drawn(bob, "fixed_k_b")

    c_a = c_b = None
    if config.commitments_enabled:
        c_a = commit(k_a, alice.rng)
        transcript.log("alice", "commit_K_A", digest=c_a.digest.hex())
        c_b = commit(k_b, bob.rng)
        transcript.log("bob", "commit_K_B", digest=c_b.digest.hex())

    session.psi_pairs()
    actions = choose_actions(n, session.m, bob.rng)
    encode = ClassicalAction.MEASURE_AND_PREPARE  # a local: an Enum member read runs Python code
    encoded = [i for i, a in enumerate(actions) if a is encode]
    r_b = session.exchange(encoded, k_b, "return_sequence")
    transcript.log("bob", "reveal_Pi_m", mapping=session.decoy_wires())
    aborted = session.bell_check([BellKind.PSI_PLUS] * len(session.decoys))
    if aborted:
        return aborted

    if announce_key:
        announced = config.dishonest_k_a if config.dishonest_k_a is not None else k_a
        transcript.log("alice", "announce_K_A", bits=list(announced))
        k_f_bob = xor_bits(announced, k_b)
    else:
        announced = None
        k_f_bob = k_b

    # claimed[i]: the encoded slot whose wire Bob discloses as slot i's
    claimed = list(range(n))
    if config.dishonest_pi_n and n >= 2:
        claimed[0], claimed[1] = 1, 0
    wires = session.encoded_wires
    transcript.log("bob", "reveal_Pi_n", mapping=[[i, wires[c]] for i, c in enumerate(claimed)])

    if config.commitments_enabled and announce_key:
        ok = verify(c_a, announced)
        transcript.log("bob", "verify_commitment", party="alice", ok=ok)
        if not ok:
            return session.abort("bob", AbortReason.COMMITMENT_MISMATCH)

    r_a = tuple(session.read(alice, encoded, HOME))
    k_b_decoded = tuple(map(extract_bob_key_bit, r_a, map(session.received.__getitem__, claimed)))

    if config.commitments_enabled:
        ok = verify(c_b, k_b_decoded)
        transcript.log("alice", "verify_commitment", party="bob", ok=ok)
        if not ok:
            return session.abort("alice", AbortReason.COMMITMENT_MISMATCH)

    k_f_alice = xor_bits(announced, k_b_decoded) if announce_key else k_b_decoded
    transcript.log("alice", "compute_K_f")

    raw = RawKeys(tuple(k_a), tuple(k_b), r_a, tuple(r_b), tuple(k_f_bob))
    session.details["match_bits"] = (tuple(k_f_bob), tuple(k_f_alice))
    return session.finish({"alice": k_f_alice, "bob": tuple(k_f_bob)}, raw)


def detection_disabled(config: SqkaConfig) -> SqkaConfig:
    """Variant that never aborts: full threshold, no commitments."""
    return replace(config, threshold=1.0, commitments_enabled=False)
