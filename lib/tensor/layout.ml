module B = Eva_core.Builder
module Executor = Eva_core.Executor

type t = { lanes : int; lane_size : int }

let pow2 x = x >= 1 && x land (x - 1) = 0

let make ~lanes ~lane_size =
  if not (pow2 lanes) then invalid_arg "Layout.make: lanes must be a power of two";
  if not (pow2 lane_size) then invalid_arg "Layout.make: lane_size must be a power of two";
  { lanes; lane_size }

let lanes t = t.lanes
let lane_size t = t.lane_size
let vec_size t = t.lanes * t.lane_size

let slot t ~lane i =
  if lane < 0 || lane >= t.lanes then invalid_arg "Layout.slot: lane out of range";
  if i < 0 || i >= t.lane_size then invalid_arg "Layout.slot: index out of range";
  (i * t.lanes) + lane

let rewrite_step t k = k * t.lanes

let interleave t members =
  if Array.length members <> t.lanes then invalid_arg "Layout.interleave: wrong member count";
  Array.iter
    (fun m -> if Array.length m <> t.lane_size then invalid_arg "Layout.interleave: wrong lane length")
    members;
  Executor.interleave members

let scatter t ~lane v =
  if Array.length v <> vec_size t then invalid_arg "Layout.scatter: wrong vector length";
  Executor.extract_lane ~lanes:t.lanes ~lane v

(* The 0/1 output mask for one request: 1.0 exactly on lane [lane]'s
   first [len] slots. Padding slots (a request vector shorter than the
   lane) and every other request's lanes are zeroed, so one request's
   result can never leak into another's response. *)
let lane_mask ?len t ~lane =
  let len = Option.value len ~default:t.lane_size in
  if len < 0 || len > t.lane_size then invalid_arg "Layout.lane_mask: len out of range";
  let m = Array.make (vec_size t) 0.0 in
  for i = 0 to len - 1 do
    m.((i * t.lanes) + lane) <- 1.0
  done;
  m

let apply_mask ?len t ~lane v =
  let mask = lane_mask ?len t ~lane in
  Array.map2 ( *. ) mask v

(* {2 Homomorphic lane fans}

   Built on [Kernels.rotate_shared] so every rotation of a shared source
   is emitted once and the executor's RotateMany hoisting evaluates the
   whole fan from one digit decomposition. These rotations are
   deliberately cross-lane (steps below [lanes]); they appear in
   hand-built reduction programs, not in [Passes.batch] output. *)

let extract ctx t ~lane x =
  let mask = lane_mask t ~lane in
  B.mul x (B.const_vector ctx.Kernels.builder ~scale:ctx.Kernels.mask_scale mask)

let replicate_lane ctx t ~lane x =
  (* Mask lane [lane], shift it onto lane 0, then double coverage:
     after masking, every slot off the lane's stride is zero, so the
     sub-stride shifts fill the gaps without cross-request
     contamination. *)
  let masked = extract ctx t ~lane x in
  let based = Kernels.rotate_shared ctx masked lane in
  let rec widen acc s =
    if s >= t.lanes then acc else widen (B.add acc (Kernels.rotate_shared ctx acc (-s))) (2 * s)
  in
  widen based 1

let permute ctx t perm x =
  if Array.length perm <> t.lanes then invalid_arg "Layout.permute: wrong permutation length";
  let seen = Array.make t.lanes false in
  Array.iter
    (fun s ->
      if s < 0 || s >= t.lanes || seen.(s) then invalid_arg "Layout.permute: not a permutation";
      seen.(s) <- true)
    perm;
  let terms =
    List.init t.lanes (fun dst ->
        let src = perm.(dst) in
        let masked = extract ctx t ~lane:src x in
        Kernels.rotate_shared ctx masked (src - dst))
  in
  Eva_core.Simd.balanced_sum ~add:B.add terms
