"""Experiment registry: named, configurable, deterministic pipelines over
the tower, characteristic-p, isogeny, and p-adic modules."""

from __future__ import annotations

import json
import random
from fractions import Fraction

from . import charp, isogeny, padic, tower
from .coefficients import PRIME_TEST_LIMIT, CycloNum, is_prime
from .groebner import normal_form
from .polynomials import ParseBudget, Poly, format_poly
from .reports import ExperimentReport, check_against_fixture


class ConfigError(ValueError):
    """Bad experiment configuration; messages name the offending field."""


# charp reduces z^(2p) modulo the relation on the first rung of its
# Frobenius ladder, about p^2 term operations, so larger primes are refused
# up front; the paper needs p <= 13.
CHARP_PRIME_LIMIT = 100

# padic's cost barely grows with p (--precision 8 --samples 50 takes 0.4 s
# of process wall time for p near the limit), so its bound is the primality
# test's: a larger p could not be certified prime.  Each schema tests its
# bound before is_prime.
PADIC_PRIME_LIMIT = PRIME_TEST_LIMIT

# a padic --input file is read up to this many bytes and refused past it.
# Any document within PARSE_TEXT_LIMIT fits, escapes and steps included:
# its polynomial texts share 16 Ki characters, at most 12 bytes each when
# JSON-escaped (a \uXXXX surrogate pair), and every oracle step holds three
# nonempty texts, so at most 5461 steps of about 30 bytes of JSON apart from
# their texts: under 0.35 MiB written compactly, 0.54 MiB indented by two.
INPUT_BYTE_LIMIT = 1 << 20

# Every experiment's config fields: field -> (default, caster, predicate,
# description).  The validator and the command-line flags both read it.
SCHEMAS = {
    "tower-verify": {
        "max_level": (3, int, lambda v: 1 <= v <= 6, "an integer in 1..6"),
    },
    "tower-colon": {
        "max_level": (3, int, lambda v: 1 <= v <= 5, "an integer in 1..5"),
        "full_colon_max_level": (2, int, lambda v: 0 <= v <= 2, "an integer in 0..2"),
        "z2_max_level": (2, int, lambda v: 0 <= v <= 2, "an integer in 0..2"),
    },
    "tower-trace": {
        "pairs": (100, int, lambda v: 1 <= v <= 2000, "an integer in 1..2000"),
        "seed": (0, int, lambda v: True, "an integer"),
    },
    "charp": {
        "p": (
            0,
            int,
            lambda v: v == 0 or (v < CHARP_PRIME_LIMIT and v != 3 and is_prime(v)),
            f"0 (full matrix) or a prime below {CHARP_PRIME_LIMIT} other than 3",
        ),
        "e_max": (2, int, lambda v: 1 <= v <= 4, "an integer in 1..4"),
        "deg_bound": (3, int, lambda v: 0 <= v <= 6, "an integer in 0..6"),
    },
    "isogeny": {
        "p": (2, int, lambda v: v == 2, "2 (the only lift shipped here)"),
        "n": (2, int, lambda v: 1 <= v <= 3, "an integer in 1..3"),
        "check": ("all", str, lambda v: v == "all", "'all'"),
    },
    "padic": {
        "p": (
            5,
            int,
            lambda v: v < PADIC_PRIME_LIMIT and v != 3 and is_prime(v),
            f"a prime below {PADIC_PRIME_LIMIT} other than 3",
        ),
        "precision": (4, int, lambda v: 1 <= v <= 8, "an integer in 1..8"),
        "seed": (0, int, lambda v: True, "an integer"),
        "samples": (5, int, lambda v: 0 <= v <= 50, "an integer in 0..50"),
        "input": (None, lambda v: v, lambda v: v is None or isinstance(v, (str, dict)), "a path or document"),
    },
    "all": {
        "seed": (0, int, lambda v: True, "an integer"),
    },
}


def _validated(config: dict, experiment: str) -> dict:
    schema = SCHEMAS[experiment]
    config = dict(config or {})
    unknown = set(config) - set(schema)
    if unknown:
        raise ConfigError(f"{experiment}: unknown config fields {sorted(unknown)}")
    out = {}
    for field, (default, caster, predicate, description) in schema.items():
        raw = config.get(field, default)
        try:
            value = caster(raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{experiment}: field {field!r}: {exc}") from exc
        if not predicate(value):
            raise ConfigError(f"{experiment}: field {field!r} must be {description}, got {raw!r}")
        out[field] = value
    return out


def _check(name: str, ok: bool, **values) -> dict:
    entry = {"name": name, "status": "pass" if ok else "fail"}
    entry.update(values)
    return entry


_PRIMES_DEFAULT = (2, 5, 7, 13)


# ---------------------------------------------------------------------------


def run_tower_verify(config: dict) -> ExperimentReport:
    cfg = _validated(config, "tower-verify")
    checks = []
    for n in range(1, cfg["max_level"] + 1):
        for c in tower.verify_level(n):
            checks.append(_check(c.name, c.passed, detail=c.detail))
    return ExperimentReport("tower-verify", cfg, checks)


def run_tower_colon(config: dict) -> ExperimentReport:
    cfg = _validated(config, "tower-colon")
    checks = []
    for n in range(0, cfg["z2_max_level"] + 1):
        outside = tower.z2_not_in_xy(n)
        checks.append(
            _check(f"level{n}/z2_outside_xy", outside, decided_by="groebner normal form")
        )
    for n in range(1, cfg["max_level"] + 1):
        probe = tower.colon_probe(n, full_colon_max_level=cfg["full_colon_max_level"])
        bound = Fraction(1, 3 ** n)
        values = {
            "min_valuation": str(probe.min_valuation),
            "bound_3^-n": str(bound),
            "witness_element": format_poly(probe.witness_element),
            "certificate": probe.witness.to_json(),
        }
        # colon_probe has re-expanded the witness; it raises VerificationError
        # when the certificate does not reproduce its target
        checks.append(
            _check(f"level{n}/colon_witness_certified", probe.min_valuation <= bound, **values)
        )
        rhs = list(map(str, probe.recurrence_rhs))
        checks.append(
            _check(
                f"level{n}/valuation_recurrence",
                probe.recurrence_lhs == sum(probe.recurrence_rhs),
                lhs=str(probe.recurrence_lhs),
                rhs=rhs,
            )
        )
        if probe.full_colon is not None:
            gens, min_val = probe.full_colon
            checks.append(
                _check(
                    f"level{n}/full_colon_ideal",
                    min_val <= bound,
                    generators=list(gens),
                    min_generator_valuation=str(min_val),
                )
            )
        if probe.rejected_variant is not None:
            rv = probe.rejected_variant
            checks.append(
                _check(
                    "level1/alternate_cofactor_rejected",
                    rv["expands_to_target"] is False,
                    **rv,
                )
            )
    return ExperimentReport("tower-colon", cfg, checks)


def _random_level_poly(rng: random.Random, ring, max_exp=4, terms=4):
    parts = []
    for _ in range(terms):
        exps = tuple(rng.randrange(0, max_exp) for _ in ring.variables)
        coeff = CycloNum([Fraction(rng.randrange(-3, 4)) for _ in range(6)])
        parts.append((coeff, ring.monomial(exps)))
    return Poly.linear_combination(ring, parts)


def run_tower_trace(config: dict) -> ExperimentReport:
    cfg = _validated(config, "tower-trace")
    level = tower.build_level(1)
    ring = level.ring
    basis = tower.relation_basis(1)
    checks = []
    pi_one = tower.trace_retraction(1, ring.one())
    checks.append(_check("trace/unit_fixed", pi_one == ring.one(), value=format_poly(pi_one)))
    pi_x1 = tower.trace_retraction(1, ring.var("x1"))
    checks.append(_check("trace/new_generator_killed", pi_x1.is_zero(), value=format_poly(pi_x1)))
    z2 = tower.z2_image(1)
    pi_z2 = tower.trace_retraction(1, z2)
    checks.append(
        _check(
            "trace/embedded_subring_fixed",
            normal_form(pi_z2 - z2, basis).is_zero(),
            value=format_poly(pi_z2),
        )
    )
    rng = random.Random(cfg["seed"])
    base_ring = tower.build_level(0).ring
    idempotent = linear = True
    for _ in range(cfg["pairs"]):
        s = _random_level_poly(rng, ring)
        a = _random_level_poly(rng, base_ring, max_exp=3, terms=3)
        ea = tower.embed(a, 0, 1)
        pi_s = tower.trace_retraction(1, s)
        idempotent &= tower.trace_retraction(1, pi_s) == pi_s
        lhs = tower.trace_retraction(1, ea * s)
        rhs = normal_form(ea * pi_s, basis)
        linear &= normal_form(lhs - rhs, basis).is_zero()
    checks.append(_check("trace/idempotent", idempotent, pairs=cfg["pairs"]))
    checks.append(_check("trace/module_linear_over_base", linear, pairs=cfg["pairs"]))
    return ExperimentReport("tower-trace", cfg, checks)


def run_charp(config: dict) -> ExperimentReport:
    cfg = _validated(config, "charp")
    primes = _PRIMES_DEFAULT if cfg["p"] == 0 else (cfg["p"],)
    checks = []
    for p in primes:
        try:
            row = charp.contrast_row(p, e_max=cfg["e_max"], deg_bound=cfg["deg_bound"])
        except OverflowError as exc:
            # a Frobenius power past the packed exponent range: bad input
            raise ConfigError(f"charp: p = {p} with e_max = {cfg['e_max']}: {exc}") from exc
        ordinary = p % 3 == 1
        checks.append(
            _check(f"p{p}/z2_outside_xy", row.z2_in_xy is False, membership=row.z2_in_xy)
        )
        checks.append(
            _check(
                f"p{p}/frobenius_closure_e1",
                row.frobenius_closure_e1 is (not ordinary),
                result=row.frobenius_closure_e1,
                expected_from_congruence_class=(not ordinary),
            )
        )
        checks.append(
            _check(
                f"p{p}/tight_closure_multiplier",
                row.multiplier is not None and all(row.witness_checks),
                multiplier=row.multiplier,
                degree=row.multiplier_degree,
                witness_verified_for_e_up_to=cfg["e_max"],
                witness_checks=list(row.witness_checks),
            )
        )
        golden = check_against_fixture(
            f"charp_p{p}_emax{cfg['e_max']}_deg{cfg['deg_bound']}",
            {"multiplier": row.multiplier, "degree": row.multiplier_degree},
        )
        checks.append({"name": f"p{p}/golden_multiplier", **golden})
    return ExperimentReport("charp", cfg, checks)


def run_isogeny(config: dict) -> ExperimentReport:
    cfg = _validated(config, "isogeny")
    checks = []
    e = isogeny.hesse_double()
    checks.append(
        _check("doubling/relation_preserved", isogeny.verify_endo(e), formula=e.to_json())
    )
    golden = check_against_fixture("isogeny_doubling_formula", e.to_json())
    checks.append({"name": "doubling/pinned_normalization", **golden})
    checks.append(_check("doubling/degree", e.degree == 4, degree=e.degree))
    from .coefficients import QQ, PrimeField

    infl = isogeny.apply_endo_to_point(e, (Fraction(1), Fraction(-1), Fraction(0)), QQ)
    fixed = infl == tuple(map(Fraction, (1, -1, 0)))
    checks.append(_check("doubling/inflection_fixed", fixed, image=[str(c) for c in infl]))
    field = PrimeField(7)
    pts = isogeny.curve_points(7)
    agree = sum(
        isogeny.apply_endo_to_point(e, q, field) == isogeny.chord_tangent_double(q, field)
        for q in pts
    )
    checks.append(
        _check(
            "doubling/chord_tangent_agreement_F7",
            agree == len(pts),
            agreeing_points=agree,
            total_points=len(pts),
        )
    )
    current = e
    for n in range(1, cfg["n"] + 1):
        ok, obstruction = isogeny.membership_digits(current, cfg["p"], n)
        checks.append(
            _check(
                f"membership/m{cfg['p'] ** n}_z2_mod_p{n}",
                ok,
                obstructing_digit=obstruction,
                endo_degree=current.degree,
            )
        )
        if n < cfg["n"]:
            current = isogeny.compose_endo(current, e)
    m4 = isogeny.compose_endo(e, e)
    checks.append(
        _check(
            "composition/degree_multiplies",
            m4.degree == 16 and isogeny.verify_endo(m4),
            degree=m4.degree,
        )
    )
    return ExperimentReport("isogeny", cfg, checks)


def _check_input_shape(doc):
    """Reject a ``padic --input`` document of the wrong JSON shape before any
    field is used; a missing ``alpha`` or ``steps`` is left to the KeyError."""
    if not isinstance(doc, dict):
        raise ValueError("the document must be a JSON object")
    if "alpha" in doc and not isinstance(doc["alpha"], str):
        raise ValueError("alpha must be a string")
    oracle = doc.get("oracle", {})
    if not isinstance(oracle, dict):
        raise ValueError("oracle must be an object")
    if not isinstance(oracle.get("mode", "honest"), str):
        raise ValueError("oracle mode must be a string")
    seed = oracle.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ValueError("oracle seed must be an integer")
    steps = oracle.get("steps", [])
    if not isinstance(steps, list) or not all(
        isinstance(step, dict) and all(isinstance(step.get(k), str) for k in "abc") for step in steps
    ):
        raise ValueError("oracle steps must be a list of objects with string a, b and c")


def run_padic(config: dict) -> ExperimentReport:
    cfg = _validated(config, "padic")
    p, N = cfg["p"], cfg["precision"]
    checks = [
        _check("regular_sequence_on_truncated_model", padic.regular_sequence_check(p, N), p=p, precision=N)
    ]
    m = padic.model(p, N)

    def run_one(label: str, alpha, oracle) -> padic.ApproxTrace | None:
        trace = padic.successive_approx(alpha, oracle, N)
        checks.append(
            _check(
                f"{label}/trace_verified",
                padic.verify_trace(trace, alpha),
                trace=trace.to_json(),
            )
        )
        return trace

    alpha_x = m.parse("x")
    A, B = run_one("alpha_x", alpha_x, padic.honest_oracle(m)).sums
    checks.append(
        _check(
            "alpha_x/closed_form",
            A == m.ring.one() and B.is_zero(),
            A=format_poly(A),
            B=format_poly(B),
        )
    )
    alpha_z3 = m.parse("z^3")
    A, B = run_one("alpha_z3", alpha_z3, padic.honest_oracle(m)).sums
    checks.append(
        _check(
            "alpha_z3/closed_form",
            A == m.canon(-(m.ring.var("x") ** 2)) and B == m.canon(-(m.ring.var("y") ** 2)),
            A=format_poly(A),
            B=format_poly(B),
        )
    )
    if cfg["input"] is not None:
        # the document comes from outside: failing to read it, parse it or
        # lift its alpha is bad input, not a failed check
        try:
            doc = cfg["input"]
            if isinstance(doc, str):
                with open(doc, "rb") as fh:
                    data = fh.read(INPUT_BYTE_LIMIT + 1)
                if len(data) > INPUT_BYTE_LIMIT:
                    raise ValueError(f"the document passes {INPUT_BYTE_LIMIT} bytes")
                # bytes that are not UTF-8 raise UnicodeDecodeError, a ValueError
                doc = json.loads(data.decode("utf-8"))
            _check_input_shape(doc)
            # one budget for every polynomial text of the document
            budget = ParseBudget()
            alpha = m.parse(doc["alpha"], budget)
            oracle_cfg = doc.get("oracle", {"mode": "honest"})
            mode = oracle_cfg.get("mode", "honest")
            if mode == "honest":
                oracle = padic.honest_oracle(m)
            elif mode == "adversarial":
                oracle = padic.adversarial_oracle(m, oracle_cfg.get("seed", 0))
            elif mode == "scripted":
                oracle = padic.scripted_oracle(m, oracle_cfg["steps"], budget)
            else:
                raise ValueError(f"unknown oracle mode {mode!r}")
            run_one("input_alpha", alpha, oracle)
        # RecursionError: JSON nested past the interpreter's recursion limit
        except (OSError, KeyError, ValueError, RecursionError) as exc:
            raise ConfigError(f"padic: bad input document: {type(exc).__name__}: {exc}") from exc
    rng = random.Random(cfg["seed"])
    all_ok = True
    final_residuals_zero = True
    for k in range(cfg["samples"]):
        alpha = padic.random_xy_element(m, rng)
        trace = padic.successive_approx(alpha, padic.adversarial_oracle(m, seed=cfg["seed"] * 1000 + k), N)
        all_ok &= padic.verify_trace(trace, alpha)
        honest_trace = padic.successive_approx(alpha, padic.honest_oracle(m), N)
        final_residuals_zero &= honest_trace.steps[-1].c.is_zero()
        # oracle independence: the two final pairs represent the same element
        A, B = trace.sums
        hA, hB = honest_trace.sums
        same = m.equal(A * m.x + B * m.y, hA * m.x + hB * m.y)
        all_ok &= same
    checks.append(
        _check("random_xy/adversarial_batch_verified", all_ok, samples=cfg["samples"])
    )
    checks.append(
        _check(
            "random_xy/honest_final_residual_zero",
            final_residuals_zero,
            samples=cfg["samples"],
        )
    )
    report_cfg = dict(cfg)
    if isinstance(report_cfg.get("input"), dict):
        report_cfg["input"] = "<inline document>"
    return ExperimentReport("padic", report_cfg, checks)


def run_all(config: dict) -> ExperimentReport:
    cfg = _validated(config, "all")
    checks = []
    for name, schema in SCHEMAS.items():
        if name == "all":
            continue
        sub_cfg = {"seed": cfg["seed"]} if "seed" in schema else {}
        sub = run_experiment(name, sub_cfg)
        for c in sub.checks:
            entry = dict(c)
            entry["name"] = f"{name}/{entry['name']}"
            checks.append(entry)
    return ExperimentReport("all", cfg, checks)


_REGISTRY = {
    "tower-verify": run_tower_verify,
    "tower-colon": run_tower_colon,
    "tower-trace": run_tower_trace,
    "charp": run_charp,
    "isogeny": run_isogeny,
    "padic": run_padic,
    "all": run_all,
}


def experiment_names() -> list:
    return sorted(_REGISTRY)


def run_experiment(name: str, config: dict | None = None) -> ExperimentReport:
    runner = _REGISTRY.get(name)
    if runner is None:
        raise ConfigError(f"unknown experiment {name!r}; choose from {experiment_names()}")
    return runner(config or {})
