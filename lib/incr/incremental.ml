(* Incremental background jobs via OCaml 5 effects.

   Transformation 2 requires that rebuilding a sub-collection runs "in the
   background", with each update paying a bounded amount of construction
   work.  We realize that literally: the builder function runs inside a
   coroutine that performs a [Yield] effect every time its work budget is
   exhausted; [step job ~budget] resumes it for [budget] more work units.
   Construction functions accept a [tick] callback (one call = one unit of
   work) -- see Sais.raw / Fm_index.build. *)

type _ Effect.t += Yield : unit Effect.t

type 'a outcome = Done of 'a | More

type 'a state =
  | Not_started of ((unit -> unit) -> 'a) (* receives the tick function *)
  | Paused of (unit, 'a outcome) Effect.Deep.continuation
  | Finished of 'a

type 'a t = {
  mutable state : 'a state;
  budget : int ref;
  mutable spent : int; (* total work units consumed, for accounting *)
}

let create f = { state = Not_started f; budget = ref 0; spent = 0 }

let work_spent t = t.spent

let handler t =
  {
    Effect.Deep.retc = (fun v -> Done v);
    exnc = raise;
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Yield ->
          Some
            (fun (k : (a, _) Effect.Deep.continuation) ->
              t.state <- Paused k;
              More)
        | _ -> None);
  }

(* Run the job for [budget] work units.  Returns [`Done v] if it finished
   (now or earlier), [`More] if it yielded again. *)
let step t ~budget =
  if budget < 1 then invalid_arg "Incremental.step: budget < 1";
  match t.state with
  | Finished v -> `Done v
  | Not_started f ->
    t.budget := budget;
    let tick () =
      t.spent <- t.spent + 1;
      decr t.budget;
      if !(t.budget) <= 0 then Effect.perform Yield
    in
    (match Effect.Deep.match_with (fun () -> f tick) () (handler t) with
    | Done v ->
      t.state <- Finished v;
      `Done v
    | More -> `More)
  | Paused k ->
    t.budget := budget;
    (match Effect.Deep.continue k () with
    | Done v ->
      t.state <- Finished v;
      `Done v
    | More -> `More)

(* Run the job to completion regardless of remaining work. *)
let force t =
  let rec go () =
    match step t ~budget:max_int with
    | `Done v -> v
    | `More -> go ()
  in
  go ()
