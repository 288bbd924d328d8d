"""Simulator and verification harness for semi-quantum secure communication.

Four protocols share one toolkit: key agreement between a quantum and a
classical party, two controlled direct-communication variants, and a
two-way dialogue.  The package enforces the classical/quantum capability
split, models three eavesdropping attacks, and reproduces the protocols'
detection statistics and qubit-efficiency figures under seeded Monte Carlo.

The names below load their module on first use and are bound here then, so
importing one part of the package (``semiquantum.cli``, say) loads no other.
"""

__version__ = "0.1.0"

# The module that each exported name is taken from.
_EXPORTS = {
    **dict.fromkeys(("AttackKind", "AttackStrategy"), "adversary"),
    **dict.fromkeys(("BellKind", "OrthonormalPair"), "qsim"),
    "StateVector": "qsim_reference",
    **dict.fromkeys(("RandomSource", "derive_seed"), "rng"),
    **dict.fromkeys(
        ("CdssqcConfig", "CdssqcVariant", "SessionOutcome", "SqdConfig", "SqkaConfig", "run_cdssqc_ghz",
         "run_cdssqc_switch", "run_session", "run_sqd", "run_sqka", "run_sqkd"),
        "protocols",
    ),
}


def lazy_exports(namespace: dict, exports: dict) -> tuple:
    """The module ``__getattr__`` and ``__dir__`` (PEP 562) of the module
    whose globals are ``namespace``: ``exports`` maps each name to the module,
    relative to its package, that the name is taken from on first use and then
    bound in ``namespace``."""

    def __getattr__(name: str):
        module = exports.get(name)
        if module is None:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        # the import statement's machinery, so that -X importtime shows the module
        value = namespace[name] = getattr(__import__(module, namespace, None, (name,), 1), name)
        return value

    def __dir__() -> list:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__


__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = [*_EXPORTS, "__version__"]
