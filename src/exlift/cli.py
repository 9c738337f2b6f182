"""Batch front end: check structure, compute indices, lift units, verify
certificates, and run the regression corpus.

Exit codes: 0 success, 3 NotFredholm, 4 HypothesisFailed, 5 GuardExceeded,
6 VerificationFailed, 7 InvalidSpec or parse failure (``EXLIFT_GUARD``
included), 1 anything else (an unwritable output file included), each
with one ``error:`` line.  Code 4 stays reserved, but no command exits
with it: on a ring the hypotheses hold by theorem, and ``check`` on a
monoid reports a failed hypothesis in its report.

Reports on a ring are exact: V(R) = N^t, one N per simple component of
R/J(R) (``v_monoid_components``), a class is a rank vector and V(I) =
N^(``v_ideal_components``).  No command truncates V(R).
"""

from __future__ import annotations

import json
import sys

import click

from . import __version__
from .config import ENV_GUARD, Guards, default_guards
from .errors import (ExliftError, GuardExceeded, HypothesisFailed, InvalidSpec,
                     NotDownwardClosed, NotFredholm, VerificationFailed)
from . import certificates as certs
from . import corpus as corpus_mod
from .exchange import is_exchange_ideal, is_exchange_ring
from .ktheory import index as k_index, is_fredholm, k0_zero_test
from .lifting import lift_unit, separative_exchange_status
from .rings import (FiniteRing, build_ring, element_descriptor,
                    element_from_descriptor, full_ideal, ideal_closure,
                    parse_ring_spec, ring_spec_obj)
from .vmonoid import (OrderIdeal, _wedderburn_data, class_key,
                      has_refinement_wrt, ideal_components, is_separative,
                      lemma13_check, monoid_to_obj, parse_monoid_obj,
                      rank_vector, validate_order_ideal)

EXIT_CODES = {
    NotFredholm: 3,
    HypothesisFailed: 4,
    GuardExceeded: 5,
    VerificationFailed: 6,
    InvalidSpec: 7,
}


def _exit_code(exc: Exception) -> int:
    for klass, code in EXIT_CODES.items():
        if isinstance(exc, klass):
            return code
    return 1


def _fail(exc: Exception):
    click.echo(f"error: {type(exc).__name__}: {exc}", err=True)
    sys.exit(_exit_code(exc))


def _emit(report: dict, fmt: str, out):
    if fmt == "machine":
        text = json.dumps(report, sort_keys=True, indent=1) + "\n"
    else:
        text = _humanize(report)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _humanize(report: dict, indent: int = 0) -> str:
    lines = []
    pad = "  " * indent
    for key in sorted(report):
        val = report[key]
        if isinstance(val, dict):
            lines.append(f"{pad}{key}:")
            lines.append(_humanize(val, indent + 1))
        elif isinstance(val, list) and len(val) > 8:
            lines.append(f"{pad}{key}: [{len(val)} entries]")
        else:
            lines.append(f"{pad}{key}: {val}")
    return "\n".join(line for line in lines if line) + ("\n" if indent == 0 else "")


def _load_spec_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except FileNotFoundError as exc:
        raise InvalidSpec(f"spec file not found: {path}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidSpec(f"cannot read spec file {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:   # JSON too deep or too long
        raise InvalidSpec(f"spec file is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise InvalidSpec("spec file must hold a JSON object")
    allowed = {"ring", "ideal", "monoid", "order_ideal"}
    extra = set(obj) - allowed
    if extra:
        raise InvalidSpec(f"unknown fields in spec file: {sorted(extra)}")
    if ("ring" in obj) == ("monoid" in obj):
        raise InvalidSpec("spec file needs exactly one of 'ring' or 'monoid'")
    return obj


def _ring_context(obj: dict, ideal_opt, guards: Guards):
    # a monoid spec has no ring: its None is refused as a ring spec
    ring = build_ring(parse_ring_spec(obj.get("ring")), guards)
    if ideal_opt is not None:
        try:
            gens_desc = json.loads(ideal_opt)
        except (ValueError, RecursionError) as exc:
            raise InvalidSpec(f"--ideal is not valid JSON: {exc}") from exc
    elif "ideal" in obj:
        ideal_obj = obj["ideal"]
        if not isinstance(ideal_obj, dict) or set(ideal_obj) != {"generators"}:
            raise InvalidSpec("ideal must be an object with only 'generators'")
        gens_desc = ideal_obj["generators"]
    else:
        return ring, full_ideal(ring)
    if not isinstance(gens_desc, list):     # null names no ideal either
        raise InvalidSpec("ideal generators must be a list")
    return ring, ideal_closure(ring, [element_from_descriptor(ring, g)
                                      for g in gens_desc])


def _parse_element(ring: FiniteRing, text: str) -> int:
    try:
        desc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise InvalidSpec(f"--element is not valid JSON: {exc}") from exc
    return element_from_descriptor(ring, desc)


def _guards(guard: int | None) -> Guards:
    g = default_guards()
    return g if guard is None else g.with_carrier(guard)


spec_opt = click.option("--spec", required=True, type=click.Path(),
                        help="Path to a ring/monoid spec file (JSON).")
ideal_opt = click.option("--ideal", default=None,
                         help="Ideal generators as a JSON list of canonical "
                              "element descriptors, overriding the spec "
                              "file's ideal.")
guard_opt = click.option("--guard", default=None, type=int,
                         help=f"Carrier-size guard (also {ENV_GUARD}).")
fmt_opt = click.option("--format", "fmt", default="human",
                       type=click.Choice(["human", "machine"]),
                       help="Report format.")
out_opt = click.option("--out", default=None, type=click.Path(),
                       help="Write the report to this file instead of stdout.")


@click.group()
@click.version_option(__version__)
def main():
    """Exact exchange-ideal computations over finite rings."""


@main.command()
@spec_opt
@ideal_opt
@guard_opt
@fmt_opt
@out_opt
def check(spec, ideal, guard, fmt, out):
    """Exchange, separativity, refinement and V-monoid reports."""
    try:
        guards = _guards(guard)
        obj = _load_spec_file(spec)
        if "monoid" in obj:
            report = _check_monoid(obj)
        else:
            report = _check_ring(obj, ideal, guards)
        _emit(report, fmt, out)
    except (ExliftError, OSError) as exc:
        _fail(exc)


def _check_monoid(obj: dict) -> dict:
    m = parse_monoid_obj(obj["monoid"])
    s = None
    subset = obj.get("order_ideal")
    if subset is not None:
        if (not isinstance(subset, list)
                or any(type(i) is not int or not 0 <= i < m.size
                       for i in subset)):
            raise InvalidSpec("order_ideal must be a list of element indices")
        s = OrderIdeal(frozenset(subset))
        try:
            validate_order_ideal(m, s)
        except NotDownwardClosed as exc:
            raise InvalidSpec(f"order_ideal is not an order ideal: {exc}") \
                from exc
    report = {"format": "exlift-report", "version": 1, "kind": "check",
              "monoid": monoid_to_obj(m)}
    sep = is_separative(m)
    report["separative"] = sep.holds
    if sep.witness:
        report["separative_witness"] = list(sep.witness)
    if s is not None:
        ref = has_refinement_wrt(m, s)
        report["refinement_wrt_order_ideal"] = ref.holds
        if ref.witness:
            report["refinement_witness"] = list(ref.witness)
        try:
            l13 = lemma13_check(m, s)
            report["cancellation_with_small_units"] = l13.holds
            if l13.witness:
                report["cancellation_witness"] = list(l13.witness)
        except HypothesisFailed as exc:
            report["cancellation_with_small_units"] = f"hypothesis failed: {exc}"
    return report


def _check_ring(obj: dict, ideal_opt_val, guards: Guards) -> dict:
    ring, ideal = _ring_context(obj, ideal_opt_val, guards)
    status = separative_exchange_status(ring, ideal, guards)
    return {
        "format": "exlift-report", "version": 1, "kind": "check",
        "ring": ring_spec_obj(ring.spec),
        "ring_size": ring.size,
        "ideal_generators": [element_descriptor(ring, g)
                             for g in ideal.generators],
        "ideal_size": len(ideal.members),
        "exchange_ring": is_exchange_ring(ring),
        "exchange_ideal": is_exchange_ideal(ring, ideal),
        "v_monoid_components": [{"simple_size": s_i, "degree": n_i}
                                for s_i, n_i in _wedderburn_data(ring)[0]],
        "v_ideal_components": ideal_components(ring, ideal),
        "separative_ideal": status["separative"],
        "refinement_wrt_ideal": status["refinement"],
        "decision_path": status["decision_path"],
    }


@main.command("index")
@spec_opt
@ideal_opt
@click.option("--element", required=True,
              help="Canonical element descriptor (JSON: int in [0, n), "
                   "entry lists, or pair).")
@guard_opt
@fmt_opt
@out_opt
def index_cmd(spec, ideal, element, guard, fmt, out):
    """The K0 index of a Fredholm element, as two rank vectors in V(R) =
    N^t, and whether it vanishes."""
    try:
        guards = _guards(guard)
        obj = _load_spec_file(spec)
        ring, idl = _ring_context(obj, ideal, guards)
        x = _parse_element(ring, element)
        if not is_fredholm(ring, idl, x):
            raise NotFredholm(f"pi({element}) is not a unit of R/I")
        report = _index_report(ring, idl, x)
        _emit(report, fmt, out)
    except (ExliftError, OSError) as exc:
        _fail(exc)


def _index_report(ring, idl, x) -> dict:
    ix = k_index(ring, idl, x)
    pos, neg = (list(rank_vector(ring, class_key(ring, *parts)))
                for parts in (ix.pos_parts, ix.neg_parts))
    return {
        "format": "exlift-report", "version": 1, "kind": "index",
        "ring": ring_spec_obj(ring.spec),
        "element": element_descriptor(ring, x),
        "fredholm": True,
        "index_pos_rank": pos,
        "index_neg_rank": neg,
        "zero_test": {"zero": k0_zero_test(ix)},
    }


@main.command()
@spec_opt
@ideal_opt
@click.option("--element", required=True,
              help="Canonical element descriptor (JSON).")
@guard_opt
@fmt_opt
@out_opt
@click.option("--cert-out", default=None, type=click.Path(),
              help="Write the lift certificate to this file.")
def lift(spec, ideal, element, guard, fmt, out, cert_out):
    """Lift a Fredholm element to a unit, emitting a replayable certificate."""
    try:
        guards = _guards(guard)
        obj = _load_spec_file(spec)
        ring, idl = _ring_context(obj, ideal, guards)
        x = _parse_element(ring, element)
        cert = lift_unit(ring, idl, x, guards).certificate
        payload = cert.to_payload()
        ok, checks = certs.verify_payload(payload, guards)
        if not ok:
            raise VerificationFailed(
                f"freshly emitted certificate failed verification: "
                f"{[c for c in checks if not c['ok']][:1]}")
        report = {
            "format": "exlift-report", "version": 1, "kind": "lift",
            "ring": ring_spec_obj(ring.spec),
            "element": element_descriptor(ring, x),
            "lifted": True,
            "y": element_descriptor(ring, cert.y),
            "orbit": {"m": cert.m, "y1": payload["y1"],
                      "word_len": len(cert.z_word)},
            "stages": [{"dim": s.dim, "level": s.level} for s in cert.stages],
            "certificate_checks": len(checks),
        }
        if cert_out:
            certs.save_certificate(payload, cert_out)
            report["certificate_file"] = cert_out
        _emit(report, fmt, out)
    except (ExliftError, OSError) as exc:
        _fail(exc)


@main.command()
@click.argument("cert_file", type=click.Path())
@guard_opt
@fmt_opt
@out_opt
def verify(cert_file, guard, fmt, out):
    """Replay a certificate file; nonzero exit if any contract fails.  The
    report echoes the claim the certificate states: ring recipe, ideal
    generators, x, y and m."""
    try:
        guards = _guards(guard)
        payload = certs.load_certificate(cert_file)
        ok, checks, claim = certs.verify_claim(payload, guards)
        report = {
            "format": "exlift-report", "version": 1, "kind": "verify",
            "certificate": cert_file,
            "ok": ok,
            "claim": claim,
            "checks_total": len(checks),
            "checks_failed": [c for c in checks if not c["ok"]],
        }
        _emit(report, fmt, out)
        if not ok:
            raise VerificationFailed(
                f"{len(report['checks_failed'])} contract(s) failed")
    except (ExliftError, OSError) as exc:
        _fail(exc)


@main.command()
@click.option("--full", is_flag=True,
              help="Include the slow corpus entries (triangular over Z/4).")
@click.option("--lifts-per-pair", default=3, show_default=True,
              type=click.IntRange(min=0),
              help="How many Fredholm elements to lift and verify per pair.")
@guard_opt
@fmt_opt
@out_opt
def corpus(full, lifts_per_pair, guard, fmt, out):
    """Run structural checks and sample lifts over the regression corpus."""
    try:
        guards = _guards(guard)
        from .ktheory import fredholm_elements
        entries = []
        failures = 0
        for name, ring, ideal, _tags in corpus_mod.corpus_pairs(
                guards, include_slow=full):
            entry = {"pair": name, "ring_size": ring.size,
                     "ideal_size": len(ideal.members)}
            try:
                entry["exchange"] = (is_exchange_ring(ring)
                                     and is_exchange_ideal(ring, ideal))
                status = separative_exchange_status(ring, ideal, guards)
                entry["refinement"] = status["refinement"]
                entry["separative_exchange"] = status["ok"]
                lifted = 0
                for x in fredholm_elements(ring, ideal):
                    if lifted >= lifts_per_pair:
                        break
                    res = lift_unit(ring, ideal, x, guards)
                    ok, _ = certs.verify_payload(
                        res.certificate.to_payload(), guards)
                    if not ok:
                        entry["verify_failure"] = element_descriptor(ring, x)
                        break
                    lifted += 1
                entry["lifts_verified"] = lifted
                entry["ok"] = (entry["exchange"] and entry["refinement"]
                               and "verify_failure" not in entry)
            except ExliftError as exc:
                entry["ok"] = False
                entry["error"] = f"{type(exc).__name__}: {exc}"
            failures += 0 if entry["ok"] else 1
            entries.append(entry)
        report = {
            "format": "exlift-report", "version": 1, "kind": "corpus",
            "pairs": entries,
            "total": len(entries),
            "failures": failures,
        }
        _emit(report, fmt, out)
        if failures:
            raise VerificationFailed(f"{failures} corpus pair(s) failed")
    except (ExliftError, OSError) as exc:
        _fail(exc)


if __name__ == "__main__":
    main()
