type t = {
  base_ms : float;
  cap_ms : float;
  mutable rng : Random.State.t;
  seed : int;
  mutable prev_ms : float;
}

let make ?(base_ms = 1.0) ?(cap_ms = 100.0) ~seed () =
  if base_ms <= 0.0 || cap_ms < base_ms then
    invalid_arg "Backoff.make: need 0 < base_ms <= cap_ms";
  { base_ms; cap_ms; rng = Random.State.make [| seed |]; seed; prev_ms = base_ms }

(* Decorrelated jitter: uniform over [base, 3 * prev], clamped to the
   cap. The expectation grows geometrically (factor ~1.5 + base/2prev)
   while successive draws cover the whole interval, so retriers that
   failed together do not retry together. *)
let next_ms t =
  let hi = Float.min t.cap_ms (3.0 *. t.prev_ms) in
  let lo = t.base_ms in
  let d = lo +. Random.State.float t.rng (Float.max 0.0 (hi -. lo)) in
  t.prev_ms <- d;
  d

let sleep ?limit_ms t =
  let d = next_ms t in
  let d = match limit_ms with Some l -> Float.min d (Float.max 0.0 l) | None -> d in
  if d > 0.0 then Unix.sleepf (d /. 1000.0)

let reset t =
  t.prev_ms <- t.base_ms;
  t.rng <- Random.State.make [| t.seed |]
