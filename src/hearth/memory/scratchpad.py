"""Per-task scratchpad: the writable half of working memory."""

from __future__ import annotations


class Scratchpad:
    """Append-only list of note paragraphs, cleared between tasks."""

    def __init__(self) -> None:
        self._paragraphs: list[str] = []

    def append(self, text: str) -> None:
        if not text.strip():
            raise ValueError("cannot add an empty note")
        self._paragraphs.append(text)

    def view(self) -> str:
        return "\n\n".join(self._paragraphs)

    def clear(self) -> None:
        self._paragraphs.clear()

    def __len__(self) -> int:
        return len(self._paragraphs)
