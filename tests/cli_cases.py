"""Every scenario-level case of the CLI contract, one row each.

``formcalc run`` ends every input in a report or a typed error, with
exit code 0, 1 or 2 and no traceback.  ``tests/test_cli.py::test_cli_case``
writes each row's ``text`` to a file with a final newline and runs it: the
stdout and stderr together must hold every pattern and, with ``outcomes``,
exactly those ``  result:``/``  error:`` lines in order; exit 2 also needs an
empty stdout.  ``digest`` is the sha256 of the stdout of ``run --machine``.
A row with a ``limit`` runs in a child process stopped after that many
seconds, so a broken guard fails the row instead of hanging or filling memory.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from formcalc import darboux_chart
from tests.helpers import pulled_back_form


class Case(NamedTuple):
    id: str
    text: str
    code: int
    patterns: tuple[str, ...] = ()
    digest: str | None = None
    outcomes: tuple[str, ...] | None = None
    limit: float | None = None


def scenario(chart: str, define: str | None = None, tasks: str | None = None) -> str:
    """The text of a scenario with the given section bodies."""
    sections = [("chart", chart), ("define", define), ("tasks", tasks)]
    return "\n\n".join(f"[{name}]\n{body}" for name, body in sections if body is not None)


def _series(template: str, count: int, separator: str = " ") -> str:
    """``template`` formatted with 1..``count``, joined by ``separator``."""
    return separator.join(template.format(i) for i in range(1, count + 1))


def _pulled_back_definitions() -> tuple[str, str]:
    """The chart and the definitions of omega and its map's Q1, Q2 and P1."""
    chart = darboux_chart(10)
    phi, omega = pulled_back_form(random.Random(20001), chart, 3, 3)
    return " ".join(chart.names), f"omega = {omega}\nQ1 = {phi[0]}\nQ2 = {phi[1]}\nP1 = {phi[10]}"


OMEGA2 = "omega = d(p1)^d(q1)"
OMEGA4 = "omega = d(p1)^d(q1) + d(p2)^d(q2)"
OMEGA6 = "omega = d(p1)^d(q1) + d(p2)^d(q2) + d(p3)^d(q3)"
# the divergence form, which is not closed
DIVERGENCE = "omegaB = d(p1)^d(q1) + d(p2)^d(q2) + d(p3)^d(q3) - q1 * d(q2)^d(q3)"
NOT_CLOSED = "  error: symplectic form must be closed"
SINGULAR = "  error: coefficient matrix needs a constant nonzero determinant"
CHECK_JACOBI = "t1 = check-jacobi omega q2 q2 q2\nt2 = check-jacobi omega p1 q1 p2\nt3 = check-poisson omega"

CASES = [
    # parse errors: exit 2, with the line and column of the fault
    Case("chain-longer-than-the-chart", scenario("q1 p1", "omega = d(q1)^d(p1)^d(q1)"), 2,
         ("more factors than chart coordinates",)),
    # a character no token takes: the column of the character in the line
    Case("unexpected-character", scenario("q1 p1", "f = q1 $ p1"), 2, ("unexpected character", "line 5, column 8")),
    # the grammar is ASCII: a digit of another script is not a number
    Case("arabic-indic-coefficient", scenario("q1 p1", "f = ٣*q1"), 2,
         ("unexpected character '٣'", "line 5, column 5")),
    Case("arabic-indic-exponent", scenario("q1 p1", "f = q1^٢"), 2,
         ("unexpected character '٢'", "line 5, column 8")),
    Case("fullwidth-fraction", scenario("q1 p1", "f = ３/４"), 2,
         ("unexpected character '３'", "line 5, column 5")),
    Case("arabic-indic-k", scenario("q1 p1", OMEGA2, "t = power-bracket omega k=٣ p1 q1"), 2,
         ("expected 'k=<integer>', got 'k=٣'", "line 8, column 25")),
    Case("parse-error", scenario("q1 p1", tasks="t = twiddle"), 2, ("twiddle",)),
    Case("deep-nesting", scenario("q1 p1", "f = " + "(" * 3000 + "q1" + ")" * 3000), 2, ("nested deeper", "line 5")),
    Case("huge-exponent", scenario("q1 p1", "f = (q1+p1)^99999999999"), 2, ("exponent larger than", "line 5"),
         limit=5),
    # exponents under the cap, but a total degree 10^12 past the packed exponent field
    Case("degree-overflow-by-powers", scenario("q1 p1", "f = (((q1^1000)^1000)^1000)^1000"), 2,
         ("total degree would reach 2^32", "line 5, column 29"), limit=5),
    # a monomial term whose total degree overflows at its last factor: the
    # column of that factor in the line
    Case("degree-overflow-at-last-factor", scenario("q1 q2 p1 p2", "f = 3*q1^4294967295*q1"), 2,
         ("total degree would reach 2^32", "line 5, column 21")),
    # a collision-free product's degree bound is checked before its table is built
    Case("collision-free-degree-bound", scenario("q1 p1", "f = (q1^2147483648 + 1)*(p1^2147483648 + 2)"), 2,
         ("total degree would reach 2^32 (line 5, column 43)",)),
    # a bad item in a constraint list: the column of the bad name in the line
    Case("constraint-list-bad-name", scenario("q1 q2 p1 p2", "th = constraints(q2, p2 - q9)"), 2,
         ("line 5, column 27",)),
    # a bad name inside a task argument: the column of the bad name in the line
    Case("task-argument-bad-name", scenario("q1 q2 p1 p2", OMEGA4, "t = power-bracket omega k=1 p1 q1+q9"), 2,
         ("line 8, column 35",)),
    # a task reads its first bare 'expect' as the start of the expected value,
    # so no definition or coordinate may take that name
    Case("expect-as-a-definition-name", scenario("q1 p1", OMEGA2 + "\nexpect = q1",
         "t1 = power-bracket omega k=1 expect p1"), 2, ("name 'expect' is reserved", "line 6, column 1")),
    Case("expect-as-a-coordinate", scenario("q1 q2 expect p2", tasks="t1 = verify-suite magnetic"), 2,
         ("name 'expect' is reserved", "line 2, column 7")),
    Case("power-bracket-on-an-odd-chart", scenario("q1 q2 p1", OMEGA2, "t = power-bracket omega k=1 p1 q1"), 2,
         ("even-dimensional",)),
    # a k= with 5,000 digits, more than int() converts by default
    Case("k-with-5000-digits", scenario("q1 p1", OMEGA2, f"t = power-bracket omega k={'9' * 5000} p1 q1"), 2),
    # a suite size below 1 is a parse error, as for verify --n 0
    Case("suite-size-zero", scenario("q1 p1", tasks="t = verify-suite magnetic n=0"), 2,
         ("suite size must be at least 1, got 0 (line 5)",)),
    # only '\n' ends a line: a form feed stays in its comment, and lines after
    # a NEL keep the numbers an editor shows
    Case("form-feed-in-a-comment", scenario("q1 p1 # coords\x0cp2", OMEGA2,
         "t = power-bracket omega k=1 p1 q1 expect 1"), 0, ("tasks=1 ok=1",)),
    Case("line-number-after-a-nel", scenario("q1 p1\n# a comment\x85# continued", "f = q1 $ p1"), 2,
         ("unexpected character", "line 6, column 8")),
    # task outcomes: a mismatch or a task error is exit 1, and later tasks run
    Case("mismatch", scenario("q1 p1", OMEGA2, "t = power-bracket omega k=1 p1 q1 expect 2"), 1,
         ("status: mismatch",)),
    Case("task-error-and-the-next-task-runs", scenario("q1 q2 q3 p1 p2 p3", DIVERGENCE,
         "t1 = power-bracket omegaB k=1 p1 q1 expect 1\nt2 = check-poisson omegaB expect false"), 1,
         ("status: error", "status: ok"), outcomes=(NOT_CLOSED, "  result: false")),
    # check-jacobi needs the check-poisson determinant, for arguments whose
    # brackets vanish or not
    Case("check-jacobi-non-constant-determinant", scenario("q1 q2 p1 p2", "omega = q1 * d(p1)^d(q1) + d(p2)^d(q2)",
         CHECK_JACOBI), 1, ("constant nonzero determinant",), outcomes=(SINGULAR,) * 3),
    Case("check-jacobi-degenerate", scenario("q1 q2 p1 p2", OMEGA2, CHECK_JACOBI), 1, outcomes=(SINGULAR,) * 3),
    # a singular constant form (Pfaffian 1 - 2 + 1 = 0, no entry zero):
    # elimination runs out of pivots, and both tasks report the determinant
    Case("singular-constant-form", scenario("q1 q2 p1 p2", "omega = d(q1)^d(q2) + d(p1)^d(p2) + d(q1)^d(p1) + "
         "2 * d(q2)^d(p2) + d(q1)^d(p2) + d(q2)^d(p1)", "pb = power-bracket omega k=1 p1 q1\n"
         "poisson = check-poisson omega"), 1, ("constant nonzero determinant",)),
    # the divergence form: check-poisson false, the jacobiator 1, a derived-vf error
    Case("divergence-not-closed", scenario("q1 q2 q3 p1 p2 p3", DIVERGENCE, "poisson = check-poisson omegaB\n"
         "jac = check-jacobi omegaB p1 p2 p3\nvf = derived-vf omegaB k=1 p1"), 1,
         outcomes=("  result: false", "  result: 1", NOT_CLOSED)),
    # each of three tasks fails on the closedness test before any inversion
    Case("divergence-closedness-before-inversion", scenario("q1 q2 q3 p1 p2 p3", DIVERGENCE,
         "poisson = check-poisson omegaB\njac = check-jacobi omegaB p1 p2 p3\nvf1 = derived-vf omegaB k=1 p1\n"
         "vf2 = derived-vf omegaB k=1 p2\npb = power-bracket omegaB k=1 p1 q1"), 1,
         outcomes=("  result: false", "  result: 1") + (NOT_CLOSED,) * 3),
    # check-jacobi inverts a form that is not closed; derived-vf still needs closedness
    Case("derived-vf-after-check-jacobi", scenario("q1 q2 q3 p1 p2 p3", DIVERGENCE,
         "jac = check-jacobi omegaB p1 p2 p3\nvf = derived-vf omegaB k=1 p1"), 1,
         outcomes=("  result: 1", NOT_CLOSED)),
    # a 30,000-digit coefficient, past the interpreter's default digit limit
    Case("coefficient-past-the-digit-limit", scenario("q1 p1", OMEGA2 + "\nf = 999999999999999999999999999999^1000*q1",
         "t1 = power-bracket omega k=1 f p1"), 1,
         ("coefficient has more than 4300 digits", "tasks=1 ok=0 mismatch=0 error=1")),
    # results
    Case("long-unary-minus-chain", scenario("q1 p1", OMEGA2 + "\nf = " + "-" * 3000 + "p1",
         "t = power-bracket omega k=1 f q1 expect 1"), 0, ("status: ok",)),
    # fractions, minuses after '*' and before '(', and a reversed wedge
    # chain, in definitions, inline arguments and expected values
    Case("monomial-terms", scenario("q1 q2 p1 p2", "f = 1/2*q1^2 - 2*-q1*p1\ng = -(-q1)*3/2 + 2/3*p2^2\n"
         "omega = d(p1)^d(q1) + 3/2 * d(p2)^d(q2)", "pb = power-bracket omega k=1 f g expect 6/2*q1\n"
         "pq = power-bracket omega k=1 p2 -(-q2)*3/2 expect 3/2*2/3\n"
         "inline = power-bracket omega k=1 2*-q1 1/2*p1^2 expect -(-p1)*4/2\n"
         "poisson = check-poisson omega expect true"), 0, ("tasks=4 ok=4",)),
    # literals after and minuses before parenthesized factors, every literal
    # read by the term's one loop: {f*p2, q2} = f and {g*p1, q1} = g
    Case("literals-around-parenthesized-factors", scenario("q1 q2 p1 p2", OMEGA4 + "\n"
         "f = (q1+1)*2/3*q1^2 - -(p1+1)*p1^2\ng = 2/3^2*(q2+1)*q2^2*-1",
         "fv = power-bracket omega k=1 f*p2 q2 expect 2/3*q1^3 + p1^3 + 2/3*q1^2 + p1^2\n"
         "gv = power-bracket omega k=1 g*p1 q1 expect -4/9*q2^3 - 4/9*q2^2"), 0, ("tasks=2 ok=2",)),
    # the inverse entry 2/3 of a fractional constant form
    Case("fractional-constant-form", scenario("q1 p1", "omega = 3/2 * d(p1)^d(q1)",
         "pb = power-bracket omega k=1 p1 q1 expect 2/3"), 0, ("status: ok",)),
    # a fractional 6-dim constant form: the 2x2 sweep pivots on (0, 1), (2, 3), (4, 5)
    Case("sweep-on-the-first-pairs", scenario("x1 x2 x3 x4 x5 x6", "omega = d(x1)^d(x4) + 1/2 * d(x1)^d(x2) + "
         "3 * d(x2)^d(x5) - 2/3 * d(x3)^d(x4) + d(x3)^d(x6) + 5 * d(x5)^d(x6) - d(x2)^d(x3)",
         "pb12 = power-bracket omega k=1 x1 x2 expect 10/29\npb36 = power-bracket omega k=1 x3 x6 expect 9/29\n"
         "pb45 = power-bracket omega k=1 x4 x5 expect -3/58\npoisson = check-poisson omega expect true"), 0,
         ("tasks=4 ok=4",)),
    # a fractional 6-dim constant form that makes the sweep search for its
    # pivots (0, 2), then (1, 4); the brackets are entries of -M^-1 by
    # Fraction Gauss-Jordan
    Case("sweep-searching-for-pivots", scenario("x1 x2 x3 x4 x5 x6", "omega = 2 * d(x1)^d(x3) + 1/3 * d(x1)^d(x6) + "
         "3 * d(x2)^d(x5) - d(x2)^d(x6) + d(x3)^d(x4) - 2 * d(x4)^d(x5) + 1/2 * d(x5)^d(x6)",
         "pb13 = power-bracket omega k=1 x1 x3 expect 2/3\npb25 = power-bracket omega k=1 x2 x5 expect -1/9\n"
         "pb26 = power-bracket omega k=1 x2 x6 expect -4/3\npb46 = power-bracket omega k=1 x4 x6 expect -2\n"
         "poisson = check-poisson omega expect true"), 0, ("tasks=5 ok=5",)),
    # a polynomial constraint matrix ({q2, p2 + q1*p2} = q1 + 1): the matrix
    # result has denominator Pf^2 and still equals the form result
    Case("polynomial-constraint-sweep", scenario("q1 q2 p1 p2", OMEGA4 + "\nth = constraints(q2, p2 + q1*p2)",
         "cal = calibrate-dirac omega th expect 1\nmat = dirac-matrix omega th p1 p2 expect (-p2) / (q1 + 1)\n"
         "form = dirac-form omega th p1 p2 expect (-p2) / (q1 + 1)"), 0, ("tasks=3 ok=3",)),
    # four polynomial constraints with no constant matrix entry: the sweep's
    # second step divides once by the first pivot -q1 - 1
    Case("four-polynomial-constraints", scenario("q1 q2 q3 p1 p2 p3", OMEGA6 + "\n"
         "th = constraints(q2, p2 + q1*p2, q3, p3 + q1*p3)", "cal = calibrate-dirac omega th expect 1\n"
         "mat = dirac-matrix omega th p1 p2 expect (-p2) / (q1 + 1)\n"
         "form = dirac-form omega th p1 p2 expect (-p2) / (q1 + 1)"), 0, ("tasks=3 ok=3",)),
    # explicit bivectors in check-poisson and schouten: each coefficient's
    # partials read once, and once in all for [L, L]
    Case("explicit-bivectors", scenario("x y z", "L = e(x)^e(y) + y * e(y)^e(z)\nP = e(x)^e(y) + x * e(y)^e(z)\n"
         "X = y*z * e(x) - x^2 * e(z)", "no = check-poisson L expect false\nyes = check-poisson P expect true\n"
         "sq = schouten L L expect 2 * e(x)^e(y)^e(z)\n"
         "lie = schouten X L expect y^2 * e(x)^e(y) - y*z * e(x)^e(z) - 2*x * e(y)^e(z)"), 0, ("tasks=4 ok=4",)),
    # the corpus's 6-dim power bracket: a 5,775-term result, the largest
    # polynomial any step prints, byte for byte
    Case("corpus-6-dim-power-bracket", scenario("q1 q2 q3 p1 p2 p3", OMEGA6, "pw = power-bracket omega k=1 "
         "(q2+q3+p2+1)^9 (q1+p1+p3+1)^5 expect -45*(q2+q3+p2+1)^8*(q1+p1+p3+1)^4"), 0, ("tasks=1 ok=1",),
         digest="d1172eb197bd3bec0eed145861f6b97245700c5e319d074e6b7ce5da059ea35b"),
    # the printing paths the 6-dim result does not reach, byte for byte: a
    # head half of one name x, ints beyond 2^64, constant terms -1 and 1, +-1
    # on head-only and tail-only monomials, multivector coefficients 1, -1
    # and sums in parentheses
    Case("printing-paths", scenario("x y z", "vol = d(x)^d(y)^d(z)\n"
         "f = 1/3*x^3 - x*y*z - x + 18446744073709551617/2*x^2*z + 1/2*x*y^2 + y^5\n"
         "X = x^2 * e(x) - 1/3*y*z * e(y) - e(z)\nY = 18446744073709551617*y * e(x) - z^2 * e(z) + e(y)\n"
         "W = e(x)\nZ = x * e(y)", "nb = nambu vol 1 f y z expect x^2 + 18446744073709551617*x*z + 1/2*y^2 - y*z - 1\n"
         "neg = nambu vol -1 f y z expect -x^2 - 18446744073709551617*x*z - 1/2*y^2 + y*z + 1\n"
         "sch = schouten X Y expect (-36893488147419103234*x*y - 18446744073709551617/3*y*z) * e(x) + "
         "(-1/3*y*z^2 + 1/3*z) * e(y) + 2*z * e(z)\none = schouten W Z expect e(y)\n"
         "minus = schouten Z W expect -e(y)"), 0, ("tasks=5 ok=5",),
         digest="43f0c42eb46f54690790026bc29374bb248ac0c9eee4d660b820620063bd7e67"),
    # products whose factors share no exponent bit (q1 + 1 by q1^2 + 1, and
    # fractions with integral products) and one that shares a bit (q1^3 + 1
    # by q1 + 1); targets -1 and -2/3 fold the constant pairing into the walk
    Case("disjoint-products", scenario("q1 q2 p1 p2", "omega = d(p1)^d(q1) + 3/2 * d(p2)^d(q2)\n"
         "f = (q1 + 1)*(q1^2 + 1)\ng = (q1^3 + 1)*(q1 + 1)\nh = (2/3*q1 + 1/3)*(3/2*p2 + 3)",
         "f1 = power-bracket omega k=1 f p1 expect -(3*q1^2 + 2*q1 + 1)\n"
         "g1 = power-bracket omega k=1 g p1 expect -(q1 + 1)*(4*q1^2 - q1 + 1)\n"
         "h1 = power-bracket omega k=1 h q2 expect 1/3*(2*q1 + 1)\nfg = power-bracket omega k=1 f*p1 g*p2 expect "
         "4*q1^6*p2 + 7*q1^5*p2 + 7*q1^4*p2 + 8*q1^3*p2 + 4*q1^2*p2 + q1*p2 + p2\n"
         "k2 = power-bracket omega k=2 q1*p2 q2 h p1 expect -8/3*q1 + 2/3*p2"), 0, ("tasks=5 ok=5",),
         digest="e34a770341495280dd821c70e2026d56517690de8f5e907422f92782b8daff2c"),
    # a power bracket and a derived field whose results come from lone
    # negated products by a scalar or a monomial: the sign folded into the
    # one-term factor must reach both values
    Case("negated-one-term-products", scenario("q1 q2 p1 p2", OMEGA4,
         "pb = power-bracket omega k=1 -3/2*q1^2*p2 q2*p1-q1 expect -3/2*q1^2*p1 + 3*q1*q2*p2\n"
         "vf = derived-vf omega k=1 -2*q1*p1^2 expect -4*q1*p1 * e(q1) + 2*p1^2 * e(p1)"), 0, ("tasks=2 ok=2",)),
    # a 4-bracket and a derived field at k = 2 on the generator walk: the
    # repeated f empties the walk at its second level, and the field's
    # Fraction arguments sum in packed tables settled only at the end
    Case("generator-walk-at-k-2", scenario("q1 q2 p1 p2", OMEGA4 + "\n"
         "omegaB = d(p1)^d(q1) + d(p2)^d(q2) + 1/2*q1 * d(q1)^d(q2)\nf = q1*p2 + 2*q2^2",
         "pb = power-bracket omega k=2 f f q1 p1 expect 0\n"
         "vf = derived-vf omegaB k=2 f 1/3*q2*p1 p1^2 expect 2/3*q1*p1^2 * e(q1) - 2/3*p1^2*p2 * e(p2)"), 0,
         ("tasks=2 ok=2",)),
    # a 14-dim Nambu bracket of functions triangular in an odd order of the
    # coordinates: wedge_all's fewest-new-indices order is an odd permutation
    # of the given one, so the value is -gamma/2 only with its sign folded in
    Case("nambu-14-dim-reordered", scenario(_series("x{}", 14), f"vol = 2 * {_series('d(x{})', 14, '^')}\n"
         "gamma = x1 + 1\nF1 = x3 + 1/2*x4^2\nF2 = x10 + x2*x14\nF3 = x2 + 1/2*x4*x9\nF4 = x5 + 2*x7*x8\n"
         "F5 = x12 + 1/2*x8^2\nF6 = x8 + 3*x9*x11\nF7 = x9 + 2*x11*x13\nF8 = x4 + x7*x11\nF9 = x6 + 3*x11*x14\n"
         "F10 = x7 + 3*x1*x11\nF11 = x13 + 2*x11^2\nF12 = x1 + 3*x11*x14\nF13 = x11 - x14^2\nF14 = x14",
         f"nb = nambu vol gamma {_series('F{}', 14)} expect -1/2*x1 - 1/2"), 0, ("tasks=1 ok=1",)),
    # a top-arity bracket on 20 coordinates: its walks fill 20 merge-table
    # keys with 210 entries in well under a second, and the limit stops a
    # table of every subset of the top tuple (20 * 2^19 entries, 1 GB, 18 s)
    Case("top-arity-bracket-on-20-coordinates", scenario(_series("x{}", 20),
         f"vol = {_series('d(x{})', 20, '^')}\ng = x1 + 1", f"t = bracket vol g {_series('x{}', 20)} expect x1 + 1"),
         0, ("tasks=1 ok=1",), limit=5),
    # the 20-dim pulled-back form of seed 20001, whose matrix has polynomial
    # entries: the sweep over the polynomials takes about 1.1 s on a 2-CPU
    # host, and the limit stops a table of a Pfaffian per even index subset
    # (32 s and 2.2 GB).  By naturality {P1, Q1} = 1 and {Q1, Q2} = 0
    Case("pulled-back-20-dim", scenario(*_pulled_back_definitions(), "pb = power-bracket omega k=1 P1 Q1 expect 1\n"
         "qq = power-bracket omega k=1 Q1 Q2 expect 0"), 0, ("tasks=2 ok=2",), limit=10),
]
