"""Batch front end: check structure, compute indices, lift units, verify
certificates, and run the regression corpus.

Exit codes: 0 success, 3 NotFredholm, 4 HypothesisFailed, 5 GuardExceeded,
6 VerificationFailed, 7 InvalidSpec or parse failure, 1 anything else.
"""

from __future__ import annotations

import json
import sys

import click

from . import __version__
from .config import ENV_GUARD, Guards, default_guards
from .errors import (ExliftError, GuardExceeded, HypothesisFailed, InvalidSpec,
                     NotFredholm, VerificationFailed)
from . import certificates as certs
from . import corpus as corpus_mod
from .exchange import is_exchange_ideal, is_exchange_ring
from .ktheory import index as k_index, is_fredholm, k0_zero_test
from .lifting import (lift_unit, oracle_lift, separative_exchange_status,
                      verify_certificate)
from .rings import (FiniteRing, Ideal, build_ring, element_descriptor,
                    element_from_descriptor, full_ideal, ideal_closure,
                    parse_ring_spec, ring_spec_obj)
from .vmonoid import (OrderIdeal, build_v_monoid, has_refinement_wrt,
                      is_separative, lemma13_check, monoid_to_obj,
                      parse_monoid_obj, v_order_ideal)

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
    except json.JSONDecodeError as exc:
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
    ring = build_ring(parse_ring_spec(obj["ring"]), guards)
    gens_desc = None
    if ideal_opt is not None:
        try:
            gens_desc = json.loads(ideal_opt)
        except json.JSONDecodeError as exc:
            raise InvalidSpec(f"--ideal is not valid JSON: {exc}") from exc
    elif "ideal" in obj:
        ideal_obj = obj["ideal"]
        if not isinstance(ideal_obj, dict) or set(ideal_obj) != {"generators"}:
            raise InvalidSpec("ideal must be an object with only 'generators'")
        gens_desc = ideal_obj["generators"]
    if gens_desc is None:
        ideal = full_ideal(ring)
    else:
        if not isinstance(gens_desc, list):
            raise InvalidSpec("ideal generators must be a list")
        gens = [element_from_descriptor(ring, g) for g in gens_desc]
        ideal = ideal_closure(ring, gens)
    return ring, ideal


def _parse_element(ring: FiniteRing, text: str) -> int:
    try:
        desc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidSpec(f"--element is not valid JSON: {exc}") from exc
    return element_from_descriptor(ring, desc)


def _guards(guard: int | None) -> Guards:
    g = default_guards()
    if guard is not None:
        g = g.with_carrier(guard)
    return g


spec_opt = click.option("--spec", required=True, type=click.Path(),
                        help="Path to a ring/monoid spec file (JSON).")
ideal_opt = click.option("--ideal", default=None,
                         help="Ideal generators as a JSON list, overriding "
                              "the spec file's ideal.")
trunc_opt = click.option("--truncation", "-K", default=None, type=int,
                         help="V-monoid truncation dimension (default 2).")
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
@trunc_opt
@guard_opt
@fmt_opt
@out_opt
def check(spec, ideal, truncation, guard, fmt, out):
    """Exchange, separativity, refinement and V-monoid reports."""
    try:
        guards = _guards(guard)
        if truncation is not None:
            from dataclasses import replace
            guards = replace(guards, truncation=truncation)
        obj = _load_spec_file(spec)
        if "monoid" in obj:
            report = _check_monoid(obj)
        else:
            report = _check_ring(obj, ideal, guards)
        _emit(report, fmt, out)
    except ExliftError as exc:
        _fail(exc)


def _check_monoid(obj: dict) -> dict:
    m = parse_monoid_obj(obj["monoid"])
    report = {"format": "exlift-report", "version": 1, "kind": "check",
              "monoid": monoid_to_obj(m)}
    sep = is_separative(m)
    report["separative"] = sep.holds
    if sep.witness:
        report["separative_witness"] = list(sep.witness)
    subset = obj.get("order_ideal")
    if subset is not None:
        if (not isinstance(subset, list)
                or any(not isinstance(i, int) for i in subset)):
            raise InvalidSpec("order_ideal must be a list of element indices")
        s = OrderIdeal(frozenset(subset))
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
    from .lifting import effective_truncation
    K = effective_truncation(ring, guards)
    vm = build_v_monoid(ring, K, guards)
    s = v_order_ideal(vm, ideal)
    ref = has_refinement_wrt(vm.monoid, s)
    sep = is_separative(vm.monoid, s.member_set)
    report = {
        "format": "exlift-report", "version": 1, "kind": "check",
        "ring": ring_spec_obj(ring.spec),
        "ring_size": ring.size,
        "ideal_generators": [element_descriptor(ring, g)
                             for g in ideal.generators],
        "ideal_size": len(ideal.members),
        "exchange_ring": is_exchange_ring(ring),
        "exchange_ideal": is_exchange_ideal(ring, ideal),
        "truncation": K,
        "v_monoid": monoid_to_obj(vm.monoid),
        "v_ideal_classes": sorted(vm.monoid.labels[i] for i in s.member_set),
        "separative_ideal": sep.holds,
        "refinement_wrt_ideal": ref.holds,
    }
    if not sep.holds:
        report["separativity_witness"] = [vm.monoid.labels[i]
                                          for i in sep.witness]
    if not ref.holds:
        report["refinement_witness"] = [vm.monoid.labels[i]
                                        for i in ref.witness]
    return report


@main.command("index")
@spec_opt
@ideal_opt
@click.option("--element", required=True,
              help="Element descriptor (JSON: int, entry lists, or pair).")
@trunc_opt
@guard_opt
@fmt_opt
@out_opt
def index_cmd(spec, ideal, element, truncation, guard, fmt, out):
    """The K0 index of a Fredholm element, with both zero-test verdicts."""
    try:
        guards = _guards(guard)
        obj = _load_spec_file(spec)
        ring, idl = _ring_context(obj, ideal, guards)
        x = _parse_element(ring, element)
        if not is_fredholm(ring, idl, x):
            raise NotFredholm(f"pi({element}) is not a unit of R/I")
        report = _index_report(ring, idl, x, guards)
        _emit(report, fmt, out)
    except ExliftError as exc:
        _fail(exc)


def _index_report(ring, idl, x, guards) -> dict:
    ix = k_index(ring, idl, x, guards)
    zt = k0_zero_test(ix, guards.stabilization, guards)
    from .lifting import effective_truncation
    K = effective_truncation(ring, guards)
    vm = build_v_monoid(ring, K, guards)

    def label(mat):
        try:
            cls = vm.classify(mat)
        except GuardExceeded:
            return f"unclassified(dim={mat.n})"
        return vm.label(cls)

    return {
        "format": "exlift-report", "version": 1, "kind": "index",
        "ring": ring_spec_obj(ring.spec),
        "element": element_descriptor(ring, x),
        "fredholm": True,
        "index_pos_class": label(ix.pos),
        "index_neg_class": label(ix.neg),
        "zero_test": {
            "strict": zt.strict,
            "relaxed": zt.relaxed,
            "strict_padding": zt.strict_padding,
            "relaxed_padding": zt.relaxed_padding,
            "modes_agree": zt.modes_agree,
        },
    }


@main.command()
@spec_opt
@ideal_opt
@click.option("--element", required=True, help="Element descriptor (JSON).")
@trunc_opt
@guard_opt
@fmt_opt
@out_opt
@click.option("--cert-out", default=None, type=click.Path(),
              help="Write the lift certificate to this file.")
def lift(spec, ideal, element, truncation, guard, fmt, out, cert_out):
    """Lift a Fredholm element to a unit, emitting a replayable certificate."""
    try:
        guards = _guards(guard)
        obj = _load_spec_file(spec)
        ring, idl = _ring_context(obj, ideal, guards)
        x = _parse_element(ring, element)
        result = lift_unit(ring, idl, x, guards)
        report = {
            "format": "exlift-report", "version": 1, "kind": "lift",
            "ring": ring_spec_obj(ring.spec),
            "element": element_descriptor(ring, x),
            "zero_test": {
                "strict": result.zero_test.strict,
                "relaxed": result.zero_test.relaxed,
            },
        }
        if result.certificate is None:
            report["lifted"] = False
            _emit(report, fmt, out)
            raise HypothesisFailed(
                "index obstruction: zero test failed, no lift exists")
        cert = result.certificate
        payload = cert.to_payload()
        ok, checks = verify_certificate(payload, guards)
        if not ok:
            raise VerificationFailed(
                f"freshly emitted certificate failed verification: "
                f"{[c for c in checks if not c['ok']][:1]}")
        report.update({
            "lifted": True,
            "y": element_descriptor(ring, cert.y),
            "oracle_confirmed": cert.oracle_confirmed,
            "oracle_least_unit": element_descriptor(
                ring, oracle_lift(ring, idl, x)),
            "orbit": {"m": cert.m, "k": cert.k, "y1": payload["y1"],
                      "word_len": len(cert.z_word)},
            "stages": [{"dim": s.dim, "level": s.level} for s in cert.stages],
            "certificate_checks": len(checks),
        })
        if cert_out:
            certs.save_certificate(payload, cert_out)
            report["certificate_file"] = cert_out
        _emit(report, fmt, out)
    except ExliftError as exc:
        _fail(exc)


@main.command()
@click.argument("cert_file", type=click.Path())
@guard_opt
@fmt_opt
@out_opt
def verify(cert_file, guard, fmt, out):
    """Replay a certificate file; nonzero exit if any contract fails."""
    try:
        guards = _guards(guard)
        payload = certs.load_certificate(cert_file)
        ok, checks = certs.verify_payload(payload, guards)
        report = {
            "format": "exlift-report", "version": 1, "kind": "verify",
            "certificate": cert_file,
            "ok": ok,
            "checks_total": len(checks),
            "checks_failed": [c for c in checks if not c["ok"]],
        }
        _emit(report, fmt, out)
        if not ok:
            raise VerificationFailed(
                f"{len(report['checks_failed'])} contract(s) failed")
    except ExliftError as exc:
        _fail(exc)


@main.command()
@click.option("--full", is_flag=True,
              help="Include the slow corpus entries (triangular over Z/4).")
@click.option("--lifts-per-pair", default=3, show_default=True,
              help="How many Fredholm elements to lift and verify per pair.")
@guard_opt
@fmt_opt
@out_opt
def corpus(full, lifts_per_pair, guard, fmt, out):
    """Run structural checks and sample lifts over the regression corpus."""
    try:
        guards = _guards(guard)
        from .ktheory import fredholm_elements
        from .lifting import effective_truncation
        entries = []
        failures = 0
        for name, ring, ideal, tags in corpus_mod.corpus_pairs(
                guards, include_slow=full):
            entry = {"pair": name, "ring_size": ring.size,
                     "ideal_size": len(ideal.members)}
            try:
                entry["exchange"] = (is_exchange_ring(ring)
                                     and is_exchange_ideal(ring, ideal))
                K = effective_truncation(ring, guards)
                vm = build_v_monoid(ring, K, guards)
                s = v_order_ideal(vm, ideal)
                entry["refinement"] = has_refinement_wrt(vm.monoid, s).holds
                status = separative_exchange_status(ring, ideal, guards)
                entry["separative_exchange"] = status["ok"]
                lifted = 0
                for x in fredholm_elements(ring, ideal):
                    if lifted >= lifts_per_pair:
                        break
                    res = lift_unit(ring, ideal, x, guards)
                    if res.certificate is None:
                        entry["lift_failure"] = element_descriptor(ring, x)
                        break
                    ok, _ = verify_certificate(res.certificate.to_payload(),
                                               guards)
                    if not ok:
                        entry["verify_failure"] = element_descriptor(ring, x)
                        break
                    lifted += 1
                entry["lifts_verified"] = lifted
                entry["ok"] = (entry["exchange"] and entry["refinement"]
                               and "lift_failure" not in entry
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
    except ExliftError as exc:
        _fail(exc)


if __name__ == "__main__":
    main()
