(* Sense-reversing barrier with a bounded spin phase and a
   mutex/condvar sleep path.

   The classic structure: a shared [sense] bit and an arrival counter.
   Each thread computes the sense of the phase it is entering (the
   negation of the current global sense); the last arriver resets the
   counter and flips the global sense, releasing everyone.  Reversing
   the sense every phase makes the barrier reusable without waiting for
   stragglers of the previous phase to drain.

   The spin phase matters when domains map to real cores; the sleep
   path matters when they do not, as on the 1-core host the barrier was
   first measured on, where a pure spin barrier burned a scheduler
   quantum per waiter per phase.  The sense flip and the broadcast
   happen under the mutex, and sleepers re-check the sense under the
   same mutex before waiting, so no wakeup can be lost. *)

type t =
  { size : int
  ; arrived : int Atomic.t
  ; sense : bool Atomic.t
  ; poisoned : bool Atomic.t
  ; phases : int Atomic.t
  ; m : Mutex.t
  ; cv : Condition.t
  }

exception Poisoned

let create size =
  if size < 1 then invalid_arg "Barrier.create: size must be >= 1";
  { size
  ; arrived = Atomic.make 0
  ; sense = Atomic.make false
  ; poisoned = Atomic.make false
  ; phases = Atomic.make 0
  ; m = Mutex.create ()
  ; cv = Condition.create ()
  }

let phases t = Atomic.get t.phases
let is_poisoned t = Atomic.get t.poisoned

(* Poison must broadcast immediately, not wait for the next arrival: a
   rank asleep in [Condition.wait] has to observe it promptly.  Setting
   the flag and broadcasting under the mutex closes the lost-wakeup
   window — a sleeper holds the mutex between its re-check of the wait
   condition and the [Condition.wait] call, so the broadcast cannot
   slot into that gap. *)
let poison t =
  Mutex.lock t.m;
  Atomic.set t.poisoned true;
  Condition.broadcast t.cv;
  Mutex.unlock t.m

let spin_budget = 200

let wait t =
  if t.size > 1 then begin
    if Atomic.get t.poisoned then raise Poisoned;
    let my = not (Atomic.get t.sense) in
    if Atomic.fetch_and_add t.arrived 1 = t.size - 1 then begin
      (* last arriver: reset for the next phase, then release.  The
         counter reset must precede the sense flip — released threads
         may re-enter the barrier immediately. *)
      Atomic.set t.arrived 0;
      Atomic.incr t.phases;
      Mutex.lock t.m;
      Atomic.set t.sense my;
      Condition.broadcast t.cv;
      Mutex.unlock t.m
    end
    else begin
      let spins = ref 0 in
      while
        Atomic.get t.sense <> my
        && (not (Atomic.get t.poisoned))
        && !spins < spin_budget
      do
        incr spins;
        Domain.cpu_relax ()
      done;
      if Atomic.get t.sense <> my then begin
        Mutex.lock t.m;
        while Atomic.get t.sense <> my && not (Atomic.get t.poisoned) do
          Condition.wait t.cv t.m
        done;
        Mutex.unlock t.m
      end;
      if Atomic.get t.sense <> my && Atomic.get t.poisoned then
        raise Poisoned
    end
  end
