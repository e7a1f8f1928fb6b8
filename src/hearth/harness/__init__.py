"""Evaluation harness: tasks, trial batches, and metrics."""

from .runner import execute_task, replay_transcript
from .tasks import check_t1
