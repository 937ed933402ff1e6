"""The 18 TPC-H-shaped query shapes of the SQL battery, with literals.

Each shape mirrors one ``tests/sql_battery/q*.sql`` file — same joins,
aggregates, subqueries and ordering — but takes its literals from an
RNG, so every statement the workload sends is new to the plan cache.
Shapes whose battery file has no literal (Q13, Q15, Q21, Q22) gain one
range predicate on a base table so they can vary too.

``draw(rng)`` returns ``[(name, sql, ordered), ...]``; ``ordered`` is
the battery's ``-- compare: ordered`` directive.
"""

from __future__ import annotations

import random

REGIONS = ["africa", "america", "asia", "europe", "middle east"]
NATIONS = [
    "algeria", "ethiopia", "kenya", "morocco", "mozambique",
    "argentina", "brazil", "canada", "peru", "united states",
    "china", "india", "indonesia", "japan", "vietnam",
    "france", "germany", "romania", "russia", "united kingdom",
    "egypt", "iran", "iraq", "jordan", "saudi arabia",
]
SEGMENTS = ["automobile", "building", "furniture", "household", "machinery"]
SHIPMODES = ["air", "fob", "mail", "rail", "reg air", "ship", "truck"]
BRANDS = [f"brand#{i}{j}" for i in (1, 2, 3, 4, 5) for j in (1, 3, 5)]


def _money(rng: random.Random, lo: float, hi: float) -> str:
    return f"{rng.randrange(int(lo * 100), int(hi * 100)) / 100:.2f}"


def q01(r):
    return f"""
SELECT l.l_returnflag, l.l_linestatus,
  sum(l.l_quantity) AS sum_qty,
  sum(l.l_extendedprice) AS sum_base_price,
  sum(l.l_extendedprice * (1 - l.l_discount)) AS sum_disc_price,
  avg(l.l_quantity) AS avg_qty, avg(l.l_discount) AS avg_disc,
  count(*) AS count_order
FROM lineitem l
WHERE l.l_shipdate <= {r.randint(10200, 10500)}
GROUP BY l.l_returnflag, l.l_linestatus
ORDER BY 1 ASC NULLS LAST, 2 ASC NULLS LAST""", True


def q03(r):
    d = r.randint(8800, 9800)
    return f"""
SELECT o.o_orderkey, o.o_orderdate,
  sum(l.l_extendedprice * (1 - l.l_discount)) AS revenue
FROM customer c
JOIN orders o ON c.c_custkey = o.o_custkey
JOIN lineitem l ON l.l_orderkey = o.o_orderkey
WHERE c.c_mktsegment = '{r.choice(SEGMENTS)}'
  AND o.o_orderdate < {d} AND l.l_shipdate > {d}
GROUP BY o.o_orderkey, o.o_orderdate
ORDER BY 2 ASC NULLS LAST, 1 ASC NULLS LAST
LIMIT 10""", True


def q04(r):
    d = r.randint(8100, 10000)
    return f"""
SELECT o.o_orderpriority, count(*) AS order_count
FROM orders o
WHERE o.o_orderdate >= {d} AND o.o_orderdate < {d + 400}
  AND o.o_orderkey IN (
    SELECT l.l_orderkey FROM lineitem l
    WHERE l.l_commitdate < l.l_receiptdate)
GROUP BY o.o_orderpriority
ORDER BY 1 ASC NULLS LAST""", True


def q05(r):
    d = r.randint(8100, 9500)
    return f"""
SELECT n.n_name, sum(l.l_extendedprice * (1 - l.l_discount)) AS revenue
FROM customer c
JOIN orders o ON c.c_custkey = o.o_custkey
JOIN lineitem l ON l.l_orderkey = o.o_orderkey
JOIN supplier s ON l.l_suppkey = s.s_suppkey
JOIN nation n ON s.s_nationkey = n.n_nationkey
JOIN region r ON n.n_regionkey = r.r_regionkey
WHERE r.r_name = '{r.choice(REGIONS)}'
  AND c.c_nationkey = s.s_nationkey
  AND o.o_orderdate >= {d} AND o.o_orderdate < {d + 1100}
GROUP BY n.n_name
ORDER BY 1 ASC NULLS LAST""", True


def q06(r):
    d = r.randint(8100, 10100)
    lo = r.randint(1, 5) / 100
    return f"""
SELECT sum(l.l_extendedprice * l.l_discount) AS revenue
FROM lineitem l
WHERE l.l_shipdate >= {d} AND l.l_shipdate < {d + 365}
  AND l.l_discount BETWEEN {lo:.2f} AND {lo + 0.04:.2f}
  AND l.l_quantity < {r.randint(20, 30)}""", False


def q07(r):
    a, b = r.sample(NATIONS, 2)
    return f"""
SELECT n1.n_name AS supp_nation, n2.n_name AS cust_nation,
  sum(l.l_extendedprice * (1 - l.l_discount)) AS volume
FROM supplier s
JOIN lineitem l ON s.s_suppkey = l.l_suppkey
JOIN orders o ON o.o_orderkey = l.l_orderkey
JOIN customer c ON c.c_custkey = o.o_custkey
JOIN nation n1 ON s.s_nationkey = n1.n_nationkey
JOIN nation n2 ON c.c_nationkey = n2.n_nationkey
WHERE (n1.n_name = '{a}' AND n2.n_name = '{b}')
   OR (n1.n_name = '{b}' AND n2.n_name = '{a}')
GROUP BY n1.n_name, n2.n_name
ORDER BY 1 ASC NULLS LAST, 2 ASC NULLS LAST""", True


def q10(r):
    d = r.randint(8100, 9300)
    return f"""
SELECT c.c_custkey, c.c_name, n.n_name,
  sum(l.l_extendedprice * (1 - l.l_discount)) AS revenue
FROM customer c
JOIN orders o ON c.c_custkey = o.o_custkey
JOIN lineitem l ON l.l_orderkey = o.o_orderkey
JOIN nation n ON c.c_nationkey = n.n_nationkey
WHERE l.l_returnflag = 'r'
  AND o.o_orderdate >= {d} AND o.o_orderdate < {d + 400}
GROUP BY c.c_custkey, c.c_name, n.n_name
ORDER BY 1 ASC NULLS LAST
LIMIT 20""", True


def q12(r):
    modes = ", ".join(f"'{m}'" for m in sorted(r.sample(SHIPMODES, 3)))
    d = r.randint(8100, 9900)
    return f"""
SELECT l.l_shipmode,
  sum(CASE WHEN o.o_orderpriority IN ('1-urgent', '2-high')
      THEN 1 ELSE 0 END) AS high_line_count,
  sum(CASE WHEN o.o_orderpriority NOT IN ('1-urgent', '2-high')
      THEN 1 ELSE 0 END) AS low_line_count
FROM orders o
JOIN lineitem l ON o.o_orderkey = l.l_orderkey
WHERE l.l_shipmode IN ({modes})
  AND l.l_shipdate < l.l_commitdate
  AND l.l_commitdate < l.l_receiptdate
  AND l.l_receiptdate >= {d} AND l.l_receiptdate < {d + 1100}
GROUP BY l.l_shipmode
ORDER BY 1 ASC NULLS LAST""", True


def q13(r):
    return f"""
SELECT c.c_custkey, count(o.o_orderkey) AS c_count
FROM customer c
LEFT JOIN orders o ON c.c_custkey = o.o_custkey
WHERE c.c_acctbal > {_money(r, -1000, 5000)}
GROUP BY c.c_custkey
ORDER BY 1 ASC NULLS LAST""", True


def q14(r):
    d = r.randint(8100, 10300)
    return f"""
SELECT 100.0 * sum(CASE WHEN p.p_type LIKE 'promo%'
              THEN l.l_extendedprice * (1 - l.l_discount)
              ELSE 0.0 END)
        / sum(l.l_extendedprice * (1 - l.l_discount)) AS promo_revenue
FROM lineitem l
JOIN part p ON l.l_partkey = p.p_partkey
WHERE l.l_shipdate >= {d} AND l.l_shipdate < {d + 120}""", False


def q15(r):
    return f"""
SELECT s.s_suppkey, s.s_name, s.s_acctbal
FROM supplier s
WHERE s.s_acctbal = (
  SELECT max(s2.s_acctbal) FROM supplier s2
  WHERE s2.s_acctbal < {_money(r, 5000, 10000)})""", False


def q16(r):
    sizes = ", ".join(str(s) for s in sorted(r.sample(range(1, 51), 8)))
    return f"""
SELECT p.p_brand, p.p_container,
  count(DISTINCT l.l_suppkey) AS supplier_cnt
FROM part p
JOIN lineitem l ON p.p_partkey = l.l_partkey
WHERE p.p_brand <> '{r.choice(BRANDS)}'
  AND p.p_size IN ({sizes})
GROUP BY p.p_brand, p.p_container
ORDER BY 1 ASC NULLS LAST, 2 ASC NULLS LAST""", True


def q17(r):
    return f"""
SELECT sum(l.l_extendedprice) / 7.0 AS avg_yearly
FROM lineitem l
JOIN part p ON p.p_partkey = l.l_partkey
WHERE p.p_brand = '{r.choice(BRANDS)}'
  AND l.l_quantity < (
    SELECT {r.randint(400, 600) / 1000:.3f} * avg(l2.l_quantity)
    FROM lineitem l2
    WHERE l2.l_partkey = l.l_partkey)""", False


def q18(r):
    return f"""
SELECT c.c_custkey, o.o_orderkey, o.o_orderdate, o.o_totalprice,
  sum(l.l_quantity) AS total_qty
FROM customer c
JOIN orders o ON c.c_custkey = o.o_custkey
JOIN lineitem l ON o.o_orderkey = l.l_orderkey
WHERE o.o_orderkey IN (
  SELECT l2.l_orderkey FROM lineitem l2
  GROUP BY l2.l_orderkey
  HAVING sum(l2.l_quantity) > {r.randint(1200, 2000) / 10:.1f})
GROUP BY c.c_custkey, o.o_orderkey, o.o_orderdate, o.o_totalprice
ORDER BY 2 ASC NULLS LAST
LIMIT 25""", True


def q19(r):
    a = r.randint(1, 10)
    b = r.randint(10, 20)
    return f"""
SELECT sum(l.l_extendedprice * (1 - l.l_discount)) AS revenue
FROM lineitem l
JOIN part p ON p.p_partkey = l.l_partkey
WHERE (p.p_container IN ('sm pack', 'med bag')
       AND l.l_quantity BETWEEN {a} AND {a + 19}
       AND l.l_shipmode IN ('air', 'reg air'))
   OR (p.p_container IN ('jumbo box', 'lg case')
       AND l.l_quantity BETWEEN {b} AND {b + 30}
       AND l.l_shipinstruct = 'deliver in person')""", False


def q20(r):
    return f"""
SELECT n.n_name, count(*) AS suppliers
FROM supplier s
JOIN nation n ON s.s_nationkey = n.n_nationkey
WHERE EXISTS (
  SELECT 1 FROM lineitem l
  WHERE l.l_suppkey = s.s_suppkey
    AND l.l_shipmode = '{r.choice(SHIPMODES)}'
    AND l.l_quantity > {r.randint(0, 300) / 10:.1f})
GROUP BY n.n_name
ORDER BY 1 ASC NULLS LAST""", True


def q21(r):
    return f"""
SELECT o.o_orderkey, o.o_totalprice
FROM orders o
WHERE o.o_totalprice < {_money(r, 100000, 300000)}
ORDER BY 2 DESC NULLS LAST, 1 ASC NULLS LAST
LIMIT {r.randint(10, 20)} OFFSET {r.randint(0, 10)}""", True


def q22(r):
    return f"""
SELECT c.c_nationkey AS nk FROM customer c
WHERE c.c_acctbal > {_money(r, -1000, 5000)}
EXCEPT
SELECT s.s_nationkey AS nk FROM supplier s
ORDER BY 1 ASC NULLS LAST""", True


SHAPES = [
    q01, q03, q04, q05, q06, q07, q10, q12, q13, q14, q15, q16, q17,
    q18, q19, q20, q21, q22,
]


def draw(rng: random.Random, seen: set) -> list[tuple[str, str, bool]]:
    """One pass: every shape once, each with literals not drawn before
    (``seen`` holds every statement text already sent)."""
    out = []
    for shape in SHAPES:
        for _attempt in range(100):
            sql, ordered = shape(rng)
            if sql not in seen:
                break
        seen.add(sql)
        out.append((shape.__name__, sql, ordered))
    return out
