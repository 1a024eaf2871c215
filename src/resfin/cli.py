"""Command-line front end: tables in JSON or CSV, certificates, re-checks.

Every subcommand delegates to one module operation and serializes its
result; nothing is computed here.  Output is locale-independent: decimal
dots, three-decimal logs in CSV, lowercase booleans, and the string
"unknown" for values a cap left open.  Exit codes: 0 done, 1 bad input
(or a certificate that fails its check), 2 inconclusive within the given
caps, 3 broken internal invariant.  A path that cannot be read or written,
and a stdout that cannot be written, is bad input too.  Each handler
returns its payload and its exit code.

Each handler imports the module it delegates to when it runs, so a
process loads only what its subcommand needs: `growth` loads words alone,
and `nilpotent-girth` and `pnt` never load it.
"""

import argparse
import json
import os
import sys

from .errors import InputError, InternalError, ResourceError


def _cell(value) -> str:
    if value is None:
        return "unknown"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.3f}"
    if isinstance(value, (list, tuple)):
        return ";".join(_cell(v) for v in value)
    return str(value)


def _row_json(row: dict) -> dict:
    return {k: ("unknown" if v is None else v) for k, v in row.items()}


def _render(payload: dict, fmt: str) -> str:
    try:
        if fmt == "csv":
            import csv
            import io

            rows = payload["rows"]
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            if rows:
                writer.writerow(rows[0].keys())
                for row in rows:
                    writer.writerow(_cell(v) for v in row.values())
            return buf.getvalue()
        payload = dict(payload)
        payload["rows"] = [_row_json(r) for r in payload["rows"]]
        return json.dumps(payload, indent=2) + "\n"
    except ValueError as exc:  # str() of an int past the digit limit; nothing else here raises one
        raise ResourceError(
            "the output holds an integer past the interpreter's limit of"
            f" {sys.get_int_max_str_digits()} digits for printing one"
        ) from exc


def _parse_word_set(text: str):
    from .words import FreeWord, parse_word

    pieces = [p.strip() for p in text.split(",")]
    if not any(pieces):
        raise InputError("the target set is empty")
    words = [parse_word(p) for p in pieces]
    rank = max(w.rank for w in words)
    return [FreeWord._reduced(rank, w.letters) for w in words]


def _cmd_growth(args):
    from .words import _ball_sizes

    if args.max < 0:
        raise InputError(f"--max must be nonnegative, got {args.max}")
    sizes = _ball_sizes(args.rank, args.max)
    rows = [{"n": n, "ball_size": size} for n, size in enumerate(sizes)]
    return {"rows": rows}, 0


def _cmd_dmax(args):
    from .separability import max_divisibility

    row = max_divisibility(args.rank, args.radius, args.cap, normal=args.normal)
    return {"rows": [row]}, 0 if row["resolved"] else 2


def _cmd_girth(args):
    from .separability import residual_girth

    res = residual_girth(args.rank, args.radius, args.cap)
    row = {"rank": args.rank, "n": args.radius, "cap": res.cap, "value": res.value}
    payload = {"rows": [row], "result": res.to_json()}
    return payload, 2 if res.unknown else 0


def _cmd_lcm_witness(args):
    from .lcmlib import cert_to_json, lcm_witness, verify_certificate

    cert = lcm_witness(_parse_word_set(args.set))
    check = verify_certificate(cert)
    if not check:
        raise InternalError(
            "freshly built certificate failed its check: " + "; ".join(check.failures)
        )
    row = {
        "targets": len(cert.targets),
        "declared_bound": cert.declared_bound,
        "nontrivial_verified": cert.nontrivial_verified,
        "verified": bool(check),
    }
    return {"rows": [row], "certificate": cert_to_json(cert)}, 0


def _cmd_power_witness(args):
    from .lcmlib import cert_to_json, power_set_witness

    report = power_set_witness(2, args.n)
    cert = report.pop("certificate")
    return {"rows": [report], "certificate": cert_to_json(cert)}, 0


def _cmd_covers_scan(args):
    from .covers import obstruction_scan

    report = obstruction_scan(args.m, args.max_degree)
    rows = report.pop("rows")
    return {"rows": rows, "summary": report}, 0


def _cmd_theorem4(args):
    from .covers import theorem4_experiment

    rows = theorem4_experiment(args.n, order_cap=args.cap)
    return {"rows": rows}, 0 if all(r["resolved"] for r in rows) else 2


def _cmd_nilpotent_girth(args):
    from .nilpotent import girth_upper_bound_nilpotent

    modulus, bound, injective = girth_upper_bound_nilpotent(args.n)
    row = {"n": args.n, "modulus": modulus, "bound": bound, "injective": injective}
    return {"rows": [row]}, 0


def _cmd_ineq(args):
    from .separability import check_basic_inequality, check_girth_inequality

    if args.which == "1":
        report = check_basic_inequality(args.rank, args.n, args.cap)
        row = {
            "which": 1,
            "rank": args.rank,
            "n": args.n,
            "status": report["status"],
            "passed": report["pass"],
            "girth_link": report["girth_link"]["status"],
        }
    else:
        report = check_girth_inequality(
            args.rank,
            args.n,
            order_cap=args.order_cap,
            girth_cap=args.girth_cap,
        )
        row = {
            "which": 2,
            "rank": args.rank,
            "n": args.n,
            "status": report["status"],
            "chain_holds": report["chain_holds"],
            "girth": report["girth"]["value"],
            "dnormal_lower": report["dnormal"]["lower_bound"],
        }
    return {"rows": [row], "report": report}, 2 if report["status"] == "inconclusive" else 0


def _cmd_pnt(args):
    from .covers import pnt_window

    report = pnt_window(args.max)
    rows = report.pop("rows")
    return {"rows": rows, "window": report}, 0


def _cmd_verify(args):
    from .lcmlib import cert_from_json, verify_certificate

    try:
        with open(args.certificate, "r", encoding="ascii") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read certificate file: {exc}")
    except (ValueError, RecursionError) as exc:  # bad or too deep JSON, non-ASCII, long ints
        raise InputError(f"certificate file is not valid JSON: {exc}")
    if isinstance(data, dict) and "certificate" in data:
        data = data["certificate"]
    cert = cert_from_json(data)
    check = verify_certificate(cert)
    row = {
        "targets": len(cert.targets),
        "declared_bound": cert.declared_bound,
        "ok": bool(check),
        "failures": "; ".join(check.failures),
    }
    return {"rows": [row]}, 0 if check else 1


def _global_flags(parser: argparse.ArgumentParser, *, suppress: bool) -> None:
    # the same flags are legal before and after the subcommand; the
    # after-position copies must not clobber already-parsed values
    d = argparse.SUPPRESS
    parser.add_argument(
        "--format", choices=("json", "csv"), default=d if suppress else "json"
    )
    parser.add_argument(
        "--out",
        default=d if suppress else None,
        help="write output to this file instead of stdout",
    )
    parser.add_argument(
        "--threads",
        type=int,
        default=d if suppress else 1,
        help="accepted for compatibility; must be positive and changes nothing",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resfin",
        description="Divisibility, residual girth, and common-multiple witnesses "
        "over finite quotients of free groups.",
    )
    _global_flags(parser, suppress=False)
    trailing = argparse.ArgumentParser(add_help=False)
    _global_flags(trailing, suppress=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("growth", help="ball sizes of the free group", parents=[trailing])
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--max", type=int, required=True)
    p.set_defaults(fn=_cmd_growth)

    p = sub.add_parser("dmax", help="max divisibility over a ball", parents=[trailing])
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--cap", type=int, required=True)
    p.add_argument("--normal", action="store_true")
    p.set_defaults(fn=_cmd_dmax)

    p = sub.add_parser("girth", help="least quotient order injective on a ball", parents=[trailing])
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--cap", type=int, required=True)
    p.set_defaults(fn=_cmd_girth)

    p = sub.add_parser("lcm-witness", help="build and check a witness certificate", parents=[trailing])
    p.add_argument("--set", required=True, help='comma-separated words, e.g. "ab,aa,B"')
    p.set_defaults(fn=_cmd_lcm_witness)

    p = sub.add_parser("power-witness", help="witness for the powers x..x^n", parents=[trailing])
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=_cmd_power_witness)

    p = sub.add_parser("covers-scan", help="exhaustive lift-closure check", parents=[trailing])
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--max-degree", type=int, required=True, dest="max_degree")
    p.set_defaults(fn=_cmd_covers_scan)

    p = sub.add_parser("theorem4", help="power-set witnesses against quotient scans", parents=[trailing])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cap", type=int, required=True)
    p.set_defaults(fn=_cmd_theorem4)

    p = sub.add_parser("nilpotent-girth", help="Heisenberg modular girth bound", parents=[trailing])
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=_cmd_nilpotent_girth)

    p = sub.add_parser("ineq", help="check one of the two inequalities", parents=[trailing])
    p.add_argument("--which", choices=("1", "2"), required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cap", type=int, default=12)
    p.add_argument("--order-cap", type=int, default=8, dest="order_cap")
    p.add_argument("--girth-cap", type=int, default=12, dest="girth_cap")
    p.set_defaults(fn=_cmd_ineq)

    p = sub.add_parser("pnt", help="lcm growth window", parents=[trailing])
    p.add_argument("--max", type=int, required=True)
    p.set_defaults(fn=_cmd_pnt)

    p = sub.add_parser("verify", help="re-check a serialized certificate", parents=[trailing])
    p.add_argument("--certificate", required=True)
    p.set_defaults(fn=_cmd_verify)
    return parser


def _emit(text: str, out: str | None) -> None:
    try:
        if out is not None:
            with open(out, "w", encoding="ascii", newline="") as fh:
                fh.write(text)
        elif sys.stdout is None:
            raise InputError("cannot write to stdout: it is closed")
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:
        if out is not None:
            raise InputError(f"cannot write output file: {exc}")
        # stdout is flushed again at exit; what it holds goes to the null device
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
        raise InputError(f"cannot write to stdout: {exc}")


def run(argv) -> int:
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return 0 if exc.code == 0 else 1
        if args.threads < 1:
            raise InputError(f"threads must be positive, got {args.threads}")
        payload, code = args.fn(args)
        _emit(_render(payload, args.format), args.out)
        return code
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ResourceError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 2
    except InternalError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))
