#!/usr/bin/env python3
"""Validate the artifacts the benches and examples write.

Usage (from the directory the artifacts were written to):

    python3 tools/check_artifacts.py BENCH_simd.json trace.json ...

Each named file is checked by the validator for its base name (see
VALIDATORS below).  When both trace_server.json and trace_client.json are
named, the two dumps must also stitch: the client's trace ids must appear
in the server's dump.  Exits 1 if a named file is missing, has no
validator, or fails a check; prints one line per file either way.
"""
import functools
import json
import os
import re
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def check_parses(path):
    """BENCH_e1_scaling.json, BENCH_plan.json: well-formed JSON."""
    load(path)


def check_em(path):
    """e12's naive/async transfer table, with async ahead of naive in
    every cell, and its one wire-stream row: the CPU quartiles of a
    3,000,000-item permutation build at M = 2 Mi, B = 4,096 on 4 workers,
    one level, the ~0.00133 transfers per item traced wire_tenants reads
    as em.transfers_per_item (0.0013287; the boundary merges move it a
    little with the seed), and n label words plus the leaves' ~n (the
    level keeps its labels)."""
    em = load(path)
    table = [r for r in em if r.get('engine') in
             ('naive_em_fisher_yates', 'em_async')]
    stream = [r for r in em if r.get('engine') == 'em_permutation_stream']
    assert len(table) + len(stream) == len(em), \
        f"unknown engines: {sorted({r.get('engine') for r in em})}"
    assert table, 'no transfer-table records'
    for r in table:
        for k in ('bench', 'engine', 'n', 'block_items', 'memory_items',
                  'block_transfers', 'levels', 'rng_words',
                  'transfers_per_item', 'speedup_vs_naive'):
            assert k in r, f'record missing {k}: {r}'
        assert r['bench'] == 'e12_external_memory', r
        if r['engine'] == 'em_async':
            assert r['speedup_vs_naive'] > 1, f'async behind naive: {r}'
    assert len(stream) == 1, f'{len(stream)} wire-stream rows'
    r = stream[0]
    for k in ('bench', 'engine', 'n', 'block_items', 'memory_items', 'pool',
              'trials', 'cpu_ns_per_item_median', 'cpu_ns_per_item_q1',
              'cpu_ns_per_item_q3', 'block_transfers', 'levels', 'rng_words',
              'transfers_per_item'):
        assert k in r, f'wire-stream row missing {k}: {r}'
    assert (r['n'], r['block_items'], r['memory_items'], r['pool'],
            r['trials']) == (3000000, 4096, 1 << 21, 4, 15), r
    assert 0 < r['cpu_ns_per_item_q1'] <= r['cpu_ns_per_item_median'] \
        <= r['cpu_ns_per_item_q3'], r
    assert r['levels'] == 1, r
    assert 0.0013 <= r['transfers_per_item'] <= 0.00135, r
    assert r['n'] <= r['rng_words'] < 2.5 * r['n'], \
        f"{r['rng_words']} random words: the level replays its labels"


def check_simd(path):
    """Per-kernel timing records plus a summary with the speedups and the
    simd-path verdict."""
    simd = load(path)
    kernels = [r for r in simd if r.get('kernel') != 'summary']
    assert kernels, 'no kernel records'
    for r in kernels:
        for k in ('kernel', 'n', 'seconds', 'ns_per_item', 'cycles_per_item'):
            assert k in r, f'record missing {k}: {r}'
    summary = [r for r in simd if r.get('kernel') == 'summary']
    assert summary, 'no summary record'
    for k in ('simd_detected', 'simd_active', 'batched_label_speedup',
              'keystream_speedup', 'min_speedup', 'scalar_only', 'pass'):
        assert k in summary[0], f'summary missing {k}'
    # The 2x acceptance gate, tolerant of scalar-only hosts (those
    # document themselves via scalar_only=true + exit 2).
    assert summary[0]['pass'] or summary[0]['scalar_only'], \
        f"batched label speedup {summary[0]['batched_label_speedup']:.2f} " \
        f"< {summary[0]['min_speedup']} on SIMD-capable hardware"


def check_prp(path):
    """Per-eval records (scalar + batched), the crossover cells, and a
    summary carrying the verdict."""
    prp = load(path)
    evals = [r for r in prp if r.get('section') == 'per_eval']
    assert {r['path'] for r in evals} == {'scalar', 'batched'}, prp
    cells = [r for r in prp if r.get('section') == 'crossover']
    assert cells, 'no crossover cells'
    for r in cells:
        for k in ('accessed_fraction', 'draws', 'prp_seconds',
                  'materializer_seconds', 'prp_wins'):
            assert k in r, f'cell missing {k}: {r}'
    summary = [r for r in prp if r.get('section') == 'summary']
    assert summary and 'crossover_demonstrated' in summary[0], prp
    assert 'batched_speedup' in summary[0]


def check_telemetry(path):
    """Per-configuration overhead records plus a summary carrying the
    budget verdict."""
    tel = load(path)
    configs = [r for r in tel if r.get('configuration') != 'summary']
    assert {r['configuration'] for r in configs} == {
        'obs off (CGP_OBS_OFF)', 'telemetry on (default)',
        'telemetry on + sampler'}, tel
    for r in configs:
        for k in ('seconds', 'us_per_job', 'overhead_vs_off', 'tenants'):
            assert k in r, f'record missing {k}: {r}'
    summary = [r for r in tel if r.get('configuration') == 'summary']
    assert summary and 'telemetry_overhead' in summary[0], tel
    assert 'within_budget' in summary[0]


def check_trace(path):
    """Chrome trace_event JSON Array Format: "X" duration events, each
    carrying its trace context in args, plus "M" metadata records (the
    clock_anchor epoch first, the trace_summary footer last).  Returns the
    dump's trace ids and its process id, for the stitching check."""
    trace = load(path)
    assert isinstance(trace, list) and trace, 'empty trace'
    xs, ms = [], {}
    for ev in trace:
        for k in ('name', 'ph', 'pid', 'tid'):
            assert k in ev, f'trace event missing {k}: {ev}'
        assert ev['ph'] in ('X', 'M'), f'unexpected phase {ev}'
        if ev['ph'] == 'M':
            ms[ev['name']] = ev
            continue
        xs.append(ev)
        for k in ('cat', 'ts', 'dur'):
            assert k in ev, f'X event missing {k}: {ev}'
        args = ev.get('args', {})
        for k in ('trace_id', 'span_id', 'parent_id'):
            assert int(args[k], 16) >= 0, f'bad {k}: {ev}'
    assert xs, 'no duration events'
    anchor = ms['clock_anchor']['args']
    assert int(anchor['wall_epoch_ns']) > 0, 'no epoch anchor'
    summary = ms['trace_summary']['args']
    assert summary['events_written'] == len(xs), summary
    assert summary['dropped_spans'] >= 0
    return ({int(e['args']['trace_id'], 16) for e in xs},
            ms['clock_anchor']['pid'])


def check_stitching(server, client):
    """The two-process harness: the client minted every trace id, so the
    server dump's ids must share a non-empty set with it, and every client
    id must appear server-side (every remote call carried its context)."""
    (server_ids, server_pid), (client_ids, client_pid) = server, client
    assert server_pid != client_pid, 'harness ran as one process?'
    shared = server_ids & client_ids
    assert shared, 'no shared trace_id: server and client dumps do not stitch'
    assert client_ids <= server_ids, \
        f'client trace ids missing server-side: {client_ids - server_ids}'
    return len(shared)


def check_prometheus(path, tenant):
    """Prometheus text exposition format 0.0.4: comments are
    HELP/TYPE/exemplar, samples are name{labels} value with numeric values
    and cgp_-prefixed names, every sample has a TYPE, and the run's
    `tenant` has per-tenant series."""
    sample_re = re.compile(
        r'^(cgp_[a-zA-Z0-9_]+)(\{[a-zA-Z0-9_]+="[^"]*"'
        r'(,[a-zA-Z0-9_]+="[^"]*")*\})? (-?[0-9]+(\.[0-9]+)?)$')
    typed, seen = set(), set()
    with open(path) as f:
        lines = f.read().split('\n')
    for line in lines:
        if not line:
            continue
        if line.startswith('#'):
            parts = line.split()
            assert parts[1] in ('HELP', 'TYPE', 'exemplar'), line
            if parts[1] == 'TYPE':
                assert parts[3] in ('counter', 'gauge', 'summary'), line
                typed.add(parts[2])
            continue
        m = sample_re.match(line)
        assert m, f'unparseable exposition line: {line!r}'
        seen.add(m.group(1))
    assert typed, 'no TYPE lines'
    stripped = {n for t in typed for n in (t, t + '_sum', t + '_count')}
    assert seen <= stripped, f'samples without TYPE: {seen - stripped}'
    assert 'cgp_svc_jobs_done_total' in seen, sorted(seen)
    assert any(f'client_id="{tenant}"' in line for line in lines), \
        f'no per-tenant series for client_id {tenant} in the exposition'


def check_ring(path):
    """The sampler ring document."""
    ring = load(path)
    for k in ('period_ms', 'slots', 'samples_taken', 'wall_epoch_ns',
              'series', 'samples', 'deltas'):
        assert k in ring, f'ring document missing {k}'
    assert ring['series'] and ring['samples'], 'empty sampler ring'


def check_svc_metrics(path):
    """The local server snapshot schema."""
    snap = load(path)
    for k in ('queue_depth', 'max_queue_depth', 'done', 'failed', 'rejected',
              'singles', 'batches', 'batched_jobs', 'plan_cache',
              'job_latency', 'batch_size', 'metrics'):
        assert k in snap, f'snapshot missing {k}'
    assert 'hit_rate' in snap['plan_cache']
    assert 'p99_ns' in snap['job_latency']
    for k in ('counters', 'gauges', 'histograms'):
        assert k in snap['metrics'], f'registry snapshot missing {k}'


def check_wire_metrics(path):
    """The snapshot fetched over the wire has the local snapshot's schema,
    the process-scope plan-cache marker, and the tenants section."""
    wire = load(path)
    for k in ('queue_depth', 'done', 'rejected', 'plan_cache',
              'job_latency', 'batch_size', 'metrics'):
        assert k in wire, f'wire snapshot missing {k}'
    assert wire['plan_cache'].get('scope') == 'process'
    assert wire['done'] >= 1, 'wire smoke ran jobs; remote snapshot shows none'
    assert 'tenants' in wire, 'wire snapshot missing the tenants section'


VALIDATORS = {
    'BENCH_e1_scaling.json': check_parses,
    'BENCH_em.json': check_em,
    'BENCH_plan.json': check_parses,
    'BENCH_simd.json': check_simd,
    'BENCH_prp.json': check_prp,
    'BENCH_telemetry.json': check_telemetry,
    'trace.json': check_trace,
    'trace_server.json': check_trace,
    'trace_client.json': check_trace,
    # The wire demo's own run serves tenants 1 and 2; the two-process
    # harness's client is tenant 7.
    'WIRE_TELEMETRY.prom': functools.partial(check_prometheus, tenant=1),
    'WIRE_TELEMETRY_RING.json': check_ring,
    'WIRE_CLIENT_TELEMETRY.prom': functools.partial(check_prometheus, tenant=7),
    'WIRE_CLIENT_TELEMETRY_RING.json': check_ring,
    'SVC_METRICS.json': check_svc_metrics,
    'WIRE_METRICS.json': check_wire_metrics,
}


def main(paths):
    if not paths:
        print(__doc__.strip(), file=sys.stderr)
        return 1
    failed = 0
    results = {}
    for path in paths:
        name = os.path.basename(path)
        validator = VALIDATORS.get(name)
        if validator is None:
            print(f'{path}: FAIL: no validator for {name}')
            failed += 1
        elif not os.path.isfile(path):
            print(f'{path}: FAIL: missing')
            failed += 1
        else:
            try:
                results[name] = validator(path)
                print(f'{path}: ok')
            except Exception as e:  # any failure in a validator fails the file
                print(f'{path}: FAIL: {type(e).__name__}: {e}')
                failed += 1
    if 'trace_server.json' in results and 'trace_client.json' in results:
        try:
            shared = check_stitching(results['trace_server.json'],
                                     results['trace_client.json'])
            print(f'stitched {shared} distributed trace(s) across two processes')
        except AssertionError as e:
            print(f'trace_server.json + trace_client.json: FAIL: {e}')
            failed += 1
    return 1 if failed else 0


if __name__ == '__main__':
    sys.exit(main(sys.argv[1:]))
