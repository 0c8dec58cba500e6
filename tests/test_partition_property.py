"""Property tests for the columnar pod merge (``scale`` family).

The claim under test: :func:`repro.experiments.scale_experiment.merge_pods`
orders the pods' outcome columns exactly as ``sorted()`` orders
``(time, pod, seq)`` tuples — ``seq`` being a row's position in its pod's
emission order — for arbitrary per-pod outputs: equal timestamps across
and within pods, empty pods, NaN response times.  The tuple sort is the
reference the array code is held to.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.scale_experiment import PodResult, merge_pods

#: A coarse grid, so equal timestamps within and across pods are common.
_times = st.integers(min_value=0, max_value=12).map(lambda tick: tick * 0.25)
_response_times = st.one_of(
    st.just(math.nan), st.floats(min_value=0.0, max_value=10.0, allow_nan=False)
)


@st.composite
def pod_outputs(draw):
    """``[(times, request ids, response times), ...]``, one triple per pod.

    Times are sorted within a pod (outcomes are recorded at the
    simulator clock); request ids are unique across the deployment.
    """
    num_pods = draw(st.integers(min_value=1, max_value=5))
    pods = []
    next_id = 1
    for _ in range(num_pods):
        times = sorted(draw(st.lists(_times, min_size=0, max_size=12)))
        ids = list(range(next_id, next_id + len(times)))
        next_id += len(times)
        responses = [draw(_response_times) for _ in times]
        pods.append((times, ids, responses))
    return pods


def _as_results(pods):
    return [
        PodResult(
            times=np.array(times, dtype=np.float64),
            request_ids=np.array(ids, dtype=np.int64),
            response_times=np.array(responses, dtype=np.float64),
            summary={},
        )
        for times, ids, responses in pods
    ]


def _merged_rows(pods):
    times, ids, responses, pod_indices = merge_pods(_as_results(pods))
    return list(
        zip(times.tolist(), pod_indices.tolist(), ids.tolist(), responses.tolist())
    )


@given(pods=pod_outputs())
@settings(max_examples=200, deadline=None)
def test_columnar_merge_equals_sorted_tuples(pods):
    reference = sorted(
        (time, pod, seq, request_id, response)
        for pod, (times, ids, responses) in enumerate(pods)
        for seq, (time, request_id, response) in enumerate(zip(times, ids, responses))
    )
    expected = [
        (time, pod, request_id, response)
        for time, pod, _seq, request_id, response in reference
    ]
    merged = _merged_rows(pods)
    # NaN != NaN, so compare the response column through its repr.
    assert [(*row[:3], repr(row[3])) for row in merged] == [
        (*row[:3], repr(row[3])) for row in expected
    ]


@given(pods=pod_outputs())
@settings(max_examples=100, deadline=None)
def test_merged_order_is_sorted_and_stable_within_partitions(pods):
    merged = _merged_rows(pods)
    keys = [(time, pod) for time, pod, _id, _response in merged]
    assert keys == sorted(keys)
    # Within one pod the emission order is preserved: ids were dealt in
    # emission order, so they must come out ascending.
    for pod in range(len(pods)):
        ids = [request_id for _time, p, request_id, _response in merged if p == pod]
        assert ids == pods[pod][1]
