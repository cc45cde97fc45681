"""Process-based discrete-event simulation engine.

The engine follows the classic event-loop design: a priority queue of
``(time, priority, sequence, event)`` entries, an :class:`Environment` that
pops entries in time order, and :class:`Process` objects that wrap Python
generators.  A process yields events; when a yielded event fires, the
process is resumed with the event's value (or an exception is thrown into
it if the event failed).

Only the features pulse needs are implemented, which keeps the kernel small
enough to reason about and test exhaustively:

* :class:`Timeout` -- fire after a simulated delay.
* :class:`Event` -- manually triggered one-shot events (used for signals
  between pipelines and the scheduler).
* :class:`Process` -- also usable as an event (fires when the process
  terminates), enabling fork/join.
* :class:`AnyOf` / :class:`AllOf` -- condition events over several events.
* :meth:`Process.interrupt` -- used to model retransmission timers.
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import Any, Callable, Generator, Iterable, List, Optional

#: Event priorities: URGENT events scheduled at the same timestamp run
#: before NORMAL ones.  Interrupts use URGENT so that an interrupted
#: process observes the interrupt before the event it was waiting on.
URGENT = 0
NORMAL = 1


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel (not for modeled faults)."""


class Interrupt(Exception):
    """Thrown into a process when :meth:`Process.interrupt` is called.

    The ``cause`` attribute carries the value passed to ``interrupt()``.
    """

    @property
    def cause(self) -> Any:
        return self.args[0] if self.args else None


class Event:
    """A one-shot occurrence in simulated time.

    An event starts *untriggered*; calling :meth:`succeed` or :meth:`fail`
    schedules it.  Once the environment pops it from the queue it is
    *processed*: its callbacks run exactly once.
    """

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: Optional[bool] = None
        #: Set when a failed event's exception was delivered somewhere.
        self._defused = False

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled."""
        return self._ok is not None

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        if self._ok is None:
            raise SimulationError("event has not been triggered yet")
        return self._ok

    @property
    def value(self) -> Any:
        if self._ok is None:
            raise SimulationError("event has not been triggered yet")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._ok is not None:
            raise SimulationError("event already triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception to be thrown into waiters."""
        if self._ok is not None:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self.env.schedule(self)
        return self

    def _process(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        assert callbacks is not None
        for callback in callbacks:
            callback(self)
        if self._ok is False and not self._defused:
            raise self._value


class Timeout(Event):
    """An event that fires ``delay`` time units after it is created."""

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        super().__init__(env)
        self.delay = delay
        self._ok = True
        self._value = value
        env.schedule(self, delay=delay)


class Process(Event):
    """Wraps a generator as a simulation process.

    The process is itself an event that fires when the generator finishes;
    its value is the generator's return value.  Other processes may yield a
    process to join on it.
    """

    def __init__(self, env: "Environment", generator: Generator):
        if not hasattr(generator, "throw"):
            raise SimulationError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self._target: Optional[Event] = None
        # Kick off the process at the current time.
        init = Event(env)
        init._ok = True
        init.callbacks.append(self._resume)
        env.schedule(init, priority=URGENT)

    @property
    def is_alive(self) -> bool:
        return self._ok is None

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if not self.is_alive:
            raise SimulationError("cannot interrupt a finished process")
        if self.env.active_process is self:
            raise SimulationError("a process cannot interrupt itself")
        # Detach from whatever the process was waiting on so the original
        # event does not resume it a second time when it eventually fires.
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._target = None
        interrupt_event = Event(self.env)
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event._defused = True
        interrupt_event.callbacks.append(self._resume)
        self.env.schedule(interrupt_event, priority=URGENT)

    def _resume(self, event: Event) -> None:
        if not self.is_alive:
            return
        self.env._active_process = self
        try:
            if event._ok:
                next_event = self._generator.send(event._value)
            else:
                event._defused = True
                next_event = self._generator.throw(event._value)
        except StopIteration as exc:
            self._target = None
            self._ok = True
            self._value = exc.value
            self.env.schedule(self)
            return
        except BaseException as exc:
            self._target = None
            self._ok = False
            self._value = exc
            self.env.schedule(self)
            return
        finally:
            self.env._active_process = None

        if not isinstance(next_event, Event):
            raise SimulationError(
                f"process yielded a non-event: {next_event!r}"
            )
        if next_event.processed:
            # Already fired: resume immediately (same timestamp).
            immediate = Event(self.env)
            immediate._ok = next_event._ok
            immediate._value = next_event._value
            if not next_event._ok:
                next_event._defused = True
                immediate._defused = True
            immediate.callbacks.append(self._resume)
            self._target = immediate
            self.env.schedule(immediate, priority=URGENT)
        else:
            next_event.callbacks.append(self._resume)
            self._target = next_event


class _Condition(Event):
    """Base for AnyOf / AllOf over a fixed set of events."""

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self._events = list(events)
        self._pending = 0
        for event in self._events:
            if event.env is not env:
                raise SimulationError("events belong to different environments")
        for event in self._events:
            if event.processed:
                self._observe(event)
            else:
                self._pending += 1
                event.callbacks.append(self._observe)
        self._check_finalize()

    def _observe(self, event: Event) -> None:
        raise NotImplementedError

    def _check_finalize(self) -> None:
        raise NotImplementedError

    def _results(self) -> dict:
        return {
            event: event._value
            for event in self._events
            if event.processed and event._ok
        }


class AnyOf(_Condition):
    """Fires as soon as any constituent event fires."""

    def _observe(self, event: Event) -> None:
        if self._ok is not None:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self.succeed(self._results())

    def _check_finalize(self) -> None:
        if self._ok is None and not self._events:
            self.succeed({})


class AllOf(_Condition):
    """Fires when all constituent events have fired."""

    def _observe(self, event: Event) -> None:
        if self._ok is not None:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._pending -= 1
        if self._pending <= 0 and all(e.processed for e in self._events):
            self.succeed(self._results())

    def _check_finalize(self) -> None:
        if self._ok is None and all(
            e.processed and e._ok for e in self._events
        ):
            self.succeed(self._results())


class Environment:
    """Holds simulated time and the event queue, and runs the loop."""

    def __init__(self, initial_time: float = 0.0):
        self._now = initial_time
        self._queue: List = []
        self._sequence = count()
        self._active_process: Optional[Process] = None

    @property
    def now(self) -> float:
        """Current simulated time (pulse convention: nanoseconds)."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        return self._active_process

    # -- factory helpers ---------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> Process:
        return Process(self, generator)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- scheduling --------------------------------------------------------
    def schedule(self, event: Event, delay: float = 0.0,
                 priority: int = NORMAL) -> None:
        heapq.heappush(
            self._queue,
            (self._now + delay, priority, next(self._sequence), event),
        )

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        if not self._queue:
            return float("inf")
        return self._queue[0][0]

    def step(self) -> None:
        """Process the next event; raises IndexError if the queue is empty."""
        when, _prio, _seq, event = heapq.heappop(self._queue)
        self._now = when
        event._process()

    def run(self, until: Any = None) -> Any:
        """Run until ``until`` (a time, an event, or exhaustion).

        * ``until is None``: run until no events remain.
        * ``until`` is a number: run until simulated time reaches it.
        * ``until`` is an :class:`Event`: run until it is processed and
          return its value (raising its exception if it failed).
        """
        if isinstance(until, Event):
            stop = until
            while not stop.processed:
                if not self._queue:
                    raise SimulationError(
                        "simulation ran out of events before the awaited "
                        "event fired (deadlock?)"
                    )
                self.step()
            if not stop._ok:
                stop._defused = True
                raise stop._value
            return stop._value

        if until is not None:
            horizon = float(until)
            if horizon < self._now:
                raise SimulationError(
                    f"run(until={horizon}) is in the past (now={self._now})"
                )
            while self._queue and self._queue[0][0] <= horizon:
                self.step()
            self._now = horizon
            return None

        while self._queue:
            self.step()
        return None
