"""Controlled direct communication: classical Alice sends a message to a
quantum Bob under the supervision of a quantum controller Charlie.

Two variants:

* GHZ-like: Charlie distributes triples (|psi1>|a> + |psi2>|b>)/sqrt(2);
  his later basis measurement selects which Bell state Alice and Bob
  shared, so Bob cannot decode until Charlie announces branch outcomes.
* Switch: Charlie distributes Bell pairs but permutes Bob's halves; Bob
  cannot pair his qubits with Alice's until Charlie discloses the
  permutation (the "cryptographic switch").

Alice's encoding is classical: measure her qubit in Z, prepare a fresh
qubit carrying message XOR outcome, return everything permuted.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from ..adversary import AttackStrategy, build_attack
from ..errors import ZeroCount
from ..parties import (
    Capability,
    PartyContext,
    Permutation,
    random_permutation,
)
from ..qsim import COMPUTATIONAL, BellKind, OrthonormalPair, RegisterBank
from ..rng import RandomSource
from .common import AbortReason, Bits, SessionOutcome, Transcript


class CdssqcVariant(Enum):
    GHZ_LIKE = "ghz"
    SWITCH = "switch"


@dataclass(frozen=True)
class CdssqcConfig:
    n: int
    m: int | None = None
    variant: CdssqcVariant = CdssqcVariant.GHZ_LIKE
    psi1: BellKind = BellKind.PSI_PLUS
    psi2: BellKind = BellKind.PHI_PLUS
    controller_basis: OrthonormalPair = COMPUTATIONAL
    switch_bell: BellKind = BellKind.PSI_PLUS
    seed: int = 0
    attack: AttackStrategy = field(default_factory=AttackStrategy.none)
    threshold: float = 0.0
    spot_check_size: int | None = None
    permutation_enabled: bool = True
    charlie_permutation_enabled: bool = True
    message: Bits | None = None

    def decoy_count(self) -> int:
        return 3 * self.n if self.m is None else self.m

    def spot_count(self) -> int:
        s = self.spot_check_size
        if s is None:
            s = min(self.decoy_count(), 2 * self.n)
        if not 0 <= s <= self.decoy_count():
            raise ValueError("spot check size must lie within the decoy budget")
        return s


def run_cdssqc_ghz(config: CdssqcConfig) -> SessionOutcome:
    if config.variant is not CdssqcVariant.GHZ_LIKE:
        raise ValueError("config variant must be GHZ_LIKE")
    return _run(config)


def run_cdssqc_switch(config: CdssqcConfig) -> SessionOutcome:
    if config.variant is not CdssqcVariant.SWITCH:
        raise ValueError("config variant must be SWITCH")
    return _run(config)


def _branch_state(config: CdssqcConfig, g: int) -> BellKind:
    return config.psi1 if g == 0 else config.psi2


def _run(config: CdssqcConfig) -> SessionOutcome:
    n = config.n
    m = config.decoy_count()
    if n < 1 or m < 1:
        raise ZeroCount(f"need n >= 1 and m >= 1, got n={n}, m={m}")
    ghz = config.variant is CdssqcVariant.GHZ_LIKE
    protocol = "cdssqc-ghz" if ghz else "cdssqc-switch"
    if ghz and config.psi1 is config.psi2:
        raise ValueError("psi1 and psi2 must differ")

    root = RandomSource(config.seed)
    bank = RegisterBank()
    transcript = Transcript()
    alice = PartyContext("alice", Capability.CLASSICAL, root.spawn(1), bank)
    bob = PartyContext("bob", Capability.QUANTUM, root.spawn(2), bank)
    charlie = PartyContext("charlie", Capability.QUANTUM, root.spawn(4), bank)
    eve_rng = (
        RandomSource(config.attack.eve_rng_seed)
        if config.attack.eve_rng_seed is not None
        else root.spawn(3)
    )
    eve = PartyContext("eve", Capability.QUANTUM, eve_rng, bank)
    attack = build_attack(config.attack, protocol, eve)

    total = n + m
    message = config.message if config.message is not None else alice.rng.bits(n)
    if len(message) != n:
        raise ValueError("message length must equal n")

    alice_seq: list[str] = []
    if ghz:
        transcript.log(
            "charlie",
            "prepare_triples",
            count=total,
            psi1=config.psi1.value,
            psi2=config.psi2.value,
        )
        for i in range(total):
            charlie.prepare_ghz_like(
                config.psi1, config.psi2, config.controller_basis, (f"A{i}", f"B{i}", f"C{i}")
            )
            alice_seq.append(f"A{i}")
        pi_c = Permutation.identity(total)
    else:
        transcript.log("charlie", "prepare_pairs", count=total, state=config.switch_bell.value)
        for i in range(total):
            charlie.prepare_bell(config.switch_bell, f"A{i}", f"B{i}")
            alice_seq.append(f"A{i}")
        pi_c = (
            random_permutation(total, charlie.rng)
            if config.charlie_permutation_enabled
            else Permutation.identity(total)
        )
        transcript.log("charlie", "permute_bob_sequence", size=total)

    transcript.log("charlie", "distribute", to=["alice", "bob"])
    alice_seq = attack.forward_leg("forward", alice_seq)

    # correlation spot check; checked copies are consumed
    s = config.spot_count()
    spot_positions = sorted(charlie.rng.sample(total, s)) if s else []
    spot_mismatches = 0
    for p in spot_positions:
        if ghz:
            g = charlie.measure_ab(f"C{p}", config.controller_basis)
            expected_parity = _branch_state(config, g).parity
        else:
            expected_parity = config.switch_bell.parity
        ra = alice.measure_z(alice_seq[p])
        rb = bob.measure_z(f"B{p}")
        if (ra ^ rb) != expected_parity:
            spot_mismatches += 1
    spot_rate = spot_mismatches / s if s else 0.0
    transcript.log(
        "all", "correlation_check",
        positions=list(spot_positions), mismatches=spot_mismatches, checked=s,
    )

    details: dict = {
        "spot_checked": s,
        "spot_mismatches": spot_mismatches,
        "decoy_checked": 0,
        "decoy_mismatches": 0,
        "eve_truth": tuple(message),
    }

    def finish(aborted, reason, keys, error_rate) -> SessionOutcome:
        details["party_ops"] = {
            "alice": sorted(set(alice.ops_log)),
            "bob": sorted(set(bob.ops_log)),
            "charlie": sorted(set(charlie.ops_log)),
        }
        return SessionOutcome(
            protocol=protocol,
            aborted=aborted,
            abort_reason=reason,
            keys=keys,
            transcript=transcript,
            error_rate_observed=error_rate,
            eve_inferences=attack.state.inferred_bits,
            raw=None,
            details=details,
        )

    if s and spot_rate > config.threshold:
        transcript.log("charlie", "abort", reason=AbortReason.CORRELATION_MISMATCH.value)
        attack.finalize([])
        return finish(True, AbortReason.CORRELATION_MISMATCH, {}, spot_rate)

    spot_set = set(spot_positions)
    remaining = [p for p in range(total) if p not in spot_set]
    attack.reindex(remaining)
    local_index = {p: i for i, p in enumerate(remaining)}
    decoys_left = m - s

    # Controller outcomes are sampled now (they commute with everything the
    # other parties do to qubits 1 and 2) and announced at the staged points.
    branch: dict[int, int] = {}
    if ghz:
        for p in remaining:
            branch[p] = charlie.measure_ab(f"C{p}", config.controller_basis)

    encode_positions = sorted(
        remaining[i] for i in alice.rng.sample(len(remaining), n)
    )
    encode_index = {p: i for i, p in enumerate(encode_positions)}
    decoy_positions = [p for p in remaining if p not in encode_index]

    r_a: list[int] = []
    out_seq: list[str] = []
    for p in remaining:
        if p in encode_index:
            idx = encode_index[p]
            outcome = alice.measure_z(alice_seq[p])
            r_a.append(outcome)
            out_seq.append(alice.prepare_z(outcome ^ message[idx], f"M{p}"))
        else:
            out_seq.append(alice.reflect(alice_seq[p]))
    transcript.log("alice", "encode", count=n)

    size = len(remaining)
    pi = (
        random_permutation(size, alice.rng)
        if config.permutation_enabled
        else Permutation.identity(size)
    )
    wire = alice.permute(pi, out_seq)
    transcript.log("alice", "send_sequence", count=size)

    # per-wire processing on the Alice->Bob leg (see sqka runner note on
    # commuting wire-order sampling)
    origin_of_wire = {pi.destination(i): remaining[i] for i in range(size)}
    bell_outcomes: dict[int, BellKind] = {}
    wire_z: dict[int, int] = {}
    for j in range(size):
        qubit = attack.wire("return", j, wire[j])
        p = origin_of_wire[j]
        if p in encode_index:
            wire_z[j] = bob.measure_z(qubit)
        else:
            partner = f"B{p}"
            bell_outcomes[p] = bob.measure_bell(partner, qubit)
        attack.after_wire("return", j)

    transcript.log("bob", "ack_receipt")
    decoy_wire = {p: pi.destination(local_index[p]) for p in decoy_positions}
    transcript.log(
        "alice", "reveal_split", decoys=sorted([p, w] for p, w in decoy_wire.items())
    )
    if ghz:
        transcript.log(
            "charlie",
            "announce_decoy_branches",
            outcomes=sorted([p, branch[p]] for p in decoy_positions),
        )
    else:
        transcript.log(
            "charlie",
            "reveal_decoy_partners",
            positions=sorted([p, pi_c.destination(p)] for p in decoy_positions),
        )

    decoy_mismatches = 0
    for p in decoy_positions:
        expected = _branch_state(config, branch[p]) if ghz else config.switch_bell
        if bell_outcomes[p] is not expected:
            decoy_mismatches += 1
    decoy_rate = decoy_mismatches / decoys_left if decoys_left else 0.0
    transcript.log("bob", "bell_check", mismatches=decoy_mismatches, checked=decoys_left)
    details["decoy_checked"] = decoys_left
    details["decoy_mismatches"] = decoy_mismatches

    encoded_wires = [pi.destination(local_index[p]) for p in encode_positions]
    attack.finalize(encoded_wires)
    details["encoded_origins"] = list(encode_positions)
    details["encoded_wires"] = list(encoded_wires)

    error_rate = (spot_mismatches + decoy_mismatches) / max(s + decoys_left, 1)

    if decoys_left and decoy_rate > config.threshold:
        transcript.log("bob", "abort", reason=AbortReason.BELL_MISMATCH.value)
        return finish(True, AbortReason.BELL_MISMATCH, {}, error_rate)

    transcript.log(
        "alice", "reveal_message_permutation", mapping=[[i, w] for i, w in enumerate(encoded_wires)]
    )

    # Bob reads his own halves of the message copies
    partner_z: dict[int, int] = {}
    for p in encode_positions:
        partner_z[p] = bob.measure_z(f"B{p}")
    transcript.log("bob", "measure_remaining", count=n)

    if ghz:
        transcript.log(
            "charlie",
            "announce_branches",
            outcomes=sorted([p, branch[p]] for p in encode_positions),
        )
        decoded = tuple(
            wire_z[encoded_wires[i]]
            ^ partner_z[p]
            ^ _branch_state(config, branch[p]).parity
            for i, p in enumerate(encode_positions)
        )
        details["branches"] = [branch[p] for p in encode_positions]
        details["travel_bits"] = [wire_z[encoded_wires[i]] for i in range(n)]
        details["partner_bits"] = [partner_z[p] for p in encode_positions]
    else:
        # decode guess before the controller's disclosure: pair message slot p
        # with Bob's wire slot p (correct only where the switch is an identity)
        value_at_bob_wire = {pi_c.destination(p): partner_z[p] for p in encode_positions}
        pre = []
        for i, p in enumerate(encode_positions):
            v = value_at_bob_wire.get(p)
            pre.append(
                None if v is None else wire_z[encoded_wires[i]] ^ v ^ config.switch_bell.parity
            )
        details["predisclosure_decode"] = tuple(pre)
        transcript.log(
            "charlie",
            "reveal_switch_permutation",
            mapping=sorted([p, pi_c.destination(p)] for p in encode_positions),
        )
        decoded = tuple(
            wire_z[encoded_wires[i]] ^ partner_z[p] ^ config.switch_bell.parity
            for i, p in enumerate(encode_positions)
        )
    transcript.log("bob", "decode", count=n)

    keys = {"alice_sent": tuple(message), "bob_decoded": decoded}
    details["match_bits"] = (tuple(message), decoded)
    details["r_a"] = tuple(r_a)
    return finish(False, AbortReason.NONE, keys, error_rate)
