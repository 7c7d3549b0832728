"""The service workload's job sequence."""

from collections import Counter

import service


def test_sequence_is_deterministic_for_a_seed():
    assert service.job_sequence(5, 0, 60) == service.job_sequence(5, 0, 60)
    assert service.job_sequence(5, 0, 60) != service.job_sequence(6, 0, 60)
    assert service.job_sequence(5, 0, 60) != service.job_sequence(5, 1, 60)
    assert service.job_sequence(5, 0, 20) == service.job_sequence(5, 0, 60)[:20]


def test_sequence_opens_with_the_reference_jobs_then_balanced_blocks():
    jobs = service.job_sequence(3, 1, 3 + 9 * 4)
    head, blocks = jobs[:3], jobs[3:]
    traces = service.tenant_seeds(3, 1)
    assert sorted(job["workload"] for job in head) == sorted(service.WORKLOADS)
    assert all((job["select"], job["keep"], job["seed"]) == (5, 8, traces[0])
               for job in head)
    for start in range(0, len(blocks), 9):
        block = blocks[start:start + 9]
        pairs = Counter((job["workload"], job["select"]) for job in block)
        assert len(pairs) == 9 and set(pairs.values()) == {1}
        assert set(Counter(job["keep"] for job in block).values()) == {3}
        assert {job["seed"] for job in block} == set(traces)


def test_job_kinds_follow_the_same_order_under_every_seed():
    def kinds(seed, index):
        return [(job["workload"], job["select"])
                for job in service.job_sequence(seed, index, 30)]

    assert kinds(1, 0) == kinds(2, 0) != kinds(1, 1)
    assert all(a != b for a, b in zip(kinds(1, 0), kinds(1, 1)))


def test_each_tenant_explores_traces_of_its_own():
    seeds = [set(service.tenant_seeds(7, index))
             for index in range(len(service.TENANTS))]
    assert not seeds[0] & seeds[1]
    for index, own in enumerate(seeds):
        assert {job["seed"] for job in service.job_sequence(7, index, 30)} == own
    assert not (seeds[0] | seeds[1]) & set(service.tenant_seeds(8, 0))
    traces = {(job["workload"], job["seed"])
              for index in range(len(service.TENANTS))
              for job in service.job_sequence(7, index, 30)}
    assert len(traces) > 4  # more than the trace-plan registry holds


def test_warm_up_repeats_a_job_across_tenants():
    jobs = service.warmup_jobs(4)
    specs = [service.spec_key(spec) for _, spec in jobs]
    repeated = {key for key in specs if specs.count(key) > 1}
    assert len(repeated) == 1
    assert {t for t, spec in jobs if service.spec_key(spec) in repeated} == set(
        service.TENANTS
    )


def test_warm_up_covers_every_trace_a_timed_job_uses():
    warmed = {(spec["workload"], spec["seed"], tenant)
              for tenant, spec in service.warmup_jobs(11)}
    for index, tenant in enumerate(service.TENANTS):
        for job in service.job_sequence(11, index, 40):
            assert (job["workload"], job["seed"], tenant) in warmed


def test_reference_specs_are_the_sequence_heads():
    for seed in (0, 97):
        heads = [
            job for index in range(len(service.TENANTS))
            for job in service.job_sequence(seed, index, 3)
        ]
        assert sorted(map(service.spec_key, heads)) == sorted(
            map(service.spec_key, service.reference_specs(seed))
        )
