type t = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

(* Row buffers are malloc'd from the serving thread and from every worker
   domain; glibc would give each thread its own arena and RSS would then
   drift with arena fragmentation. One arena keeps freed rows reusable by
   every thread. Runs once, before any domain is spawned. *)
external single_malloc_arena : unit -> unit = "eva_rowvec_single_malloc_arena"

let () = single_malloc_arena ()

(* Bigarray buffers come back uninitialized, unlike Array.make. *)
let create n : t = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n

let make n =
  let v = create n in
  Bigarray.Array1.fill v 0;
  v

(* Primitives, not [let] aliases: dune's default profile compiles with
   -opaque, under which a [let]-bound accessor is an unknown closure in
   every other module (a [caml_applyN] per residue), while a primitive
   is inlined at each call site. *)
external length : t -> int = "%caml_ba_dim_1"
external get : t -> int -> int = "%caml_ba_ref_1"
external set : t -> int -> int -> unit = "%caml_ba_set_1"
external unsafe_get : t -> int -> int = "%caml_ba_unsafe_ref_1"
external unsafe_set : t -> int -> int -> unit = "%caml_ba_unsafe_set_1"

let sub : t -> int -> int -> t = Bigarray.Array1.sub
let blit : t -> t -> unit = Bigarray.Array1.blit
let fill : t -> int -> unit = Bigarray.Array1.fill

let copy v =
  let w = create (length v) in
  blit v w;
  w

let init n f =
  let v = create n in
  for i = 0 to n - 1 do
    unsafe_set v i (f i)
  done;
  v

let of_array a = init (Array.length a) (Array.unsafe_get a)
let to_array v = Array.init (length v) (unsafe_get v)

let equal a b =
  length a = length b
  &&
  let rec go i = i >= length a || (unsafe_get a i = unsafe_get b i && go (i + 1)) in
  go 0

let alloc_rows ~count ~n =
  let flat = make (count * n) in
  Array.init count (fun i -> sub flat (i * n) n)
