(* Spans recorded by the benchmark around each call it makes into a
   layer of the stack. Spans live in memory and are written once, at
   exit, as Chrome trace-event JSON (chrome://tracing, Perfetto).

   A span's parent is the span open on the same domain when it began.
   Serve requests are asynchronous: they begin on the generator's domain
   at submit and end on a worker domain in the respond callback, so they
   are keyed by request id rather than nested on a domain stack.

   While tracing is off, [span] is one atomic load and a direct call, so
   the untraced run that produces the end-to-end metrics pays nothing
   measurable for the instrumentation. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** 0 for a root span *)
  rid : int;  (** serve request id, or -1 *)
  t0 : float;
  t1 : float;
  tid : int;  (** domain that opened the span; -1 for request spans *)
}

let on = Atomic.make false
let lock = Mutex.create ()
let spans : span list ref = ref []
let next_id = Atomic.make 1
let open_requests : (int, int * int * float) Hashtbl.t = Hashtbl.create 256
let stack = Domain.DLS.new_key (fun () -> ref [])

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let start () =
  locked (fun () ->
      spans := [];
      Hashtbl.reset open_requests);
  Atomic.set on true

let stop () = Atomic.set on false

let current_parent () = match !(Domain.DLS.get stack) with p :: _ -> p | [] -> 0

let span name f =
  if not (Atomic.get on) then f ()
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    let st = Domain.DLS.get stack in
    let parent = match !st with p :: _ -> p | [] -> 0 in
    st := id :: !st;
    let t0 = Unix.gettimeofday () in
    Fun.protect f ~finally:(fun () ->
        let t1 = Unix.gettimeofday () in
        st := List.tl !st;
        let s = { id; name; parent; rid = -1; t0; t1; tid = (Domain.self () :> int) } in
        locked (fun () -> spans := s :: !spans))
  end

let request_begin rid t0 =
  if Atomic.get on then begin
    let id = Atomic.fetch_and_add next_id 1 in
    let parent = current_parent () in
    locked (fun () -> Hashtbl.replace open_requests rid (id, parent, t0))
  end

let request_end rid t1 =
  if Atomic.get on then
    locked (fun () ->
        match Hashtbl.find_opt open_requests rid with
        | Some (id, parent, t0) ->
            Hashtbl.remove open_requests rid;
            spans := { id; name = "Serve.request"; parent; rid; t0; t1; tid = -1 } :: !spans
        | None -> ())

let all () = locked (fun () -> List.rev !spans)

(* Self time of a span: its duration minus the part of its interval that
   its children cover (children may overlap one another when they run on
   different domains, so the covered part is the union of their
   intervals). Returned per span name: total self seconds and count. *)
let self_times spans =
  let children = Hashtbl.create 256 in
  List.iter (fun s -> if s.parent <> 0 then Hashtbl.add children s.parent s) spans;
  let totals = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let kids =
        Hashtbl.find_all children s.id
        |> List.map (fun c -> (Float.max s.t0 c.t0, Float.min s.t1 c.t1))
        |> List.filter (fun (a, b) -> b > a)
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (a, b) ->
            let a = Float.max a reach in
            if b > a then (acc +. (b -. a), b) else (acc, reach))
          (0.0, neg_infinity) kids
      in
      let self = Float.max 0.0 (s.t1 -. s.t0 -. covered) in
      let tot, cnt = Option.value (Hashtbl.find_opt totals s.name) ~default:(0.0, 0) in
      Hashtbl.replace totals s.name (tot +. self, cnt + 1))
    spans;
  Hashtbl.fold (fun name (tot, cnt) acc -> (name, tot, cnt) :: acc) totals [] |> List.sort compare

let write_chrome path spans =
  let origin = List.fold_left (fun m s -> Float.min m s.t0) infinity spans in
  let us t = Json.Num (Float.round ((t -. origin) *. 1e6)) in
  let args s = Json.Obj [ ("id", Json.Num (float_of_int s.id)); ("parent", Json.Num (float_of_int s.parent)) ] in
  let event s =
    if s.rid >= 0 then
      (* Async begin/end pair: request spans overlap one another. *)
      let common ph t =
        [ ("name", Json.Str s.name); ("cat", Json.Str "request"); ("ph", Json.Str ph);
          ("id", Json.Num (float_of_int s.rid)); ("ts", us t); ("pid", Json.Num 1.0); ("tid", Json.Num 0.0) ]
      in
      [ Json.Obj (common "b" s.t0 @ [ ("args", args s) ]); Json.Obj (common "e" s.t1) ]
    else
      [
        Json.Obj
          [ ("name", Json.Str s.name); ("cat", Json.Str "layer"); ("ph", Json.Str "X"); ("ts", us s.t0);
            ("dur", Json.Num (Float.round ((s.t1 -. s.t0) *. 1e6))); ("pid", Json.Num 1.0);
            ("tid", Json.Num (float_of_int (s.tid + 1))); ("args", args s) ];
      ]
  in
  Json.write_file path (Json.Obj [ ("traceEvents", Json.Arr (List.concat_map event spans)); ("displayTimeUnit", Json.Str "ms") ])
