(* Order-preserving parallel map on domains; work is claimed from a
   shared atomic counter so uneven item costs still balance. *)
let map ~workers f items =
  let arr = Array.of_list items in
  let n = Array.length arr in
  let workers = max 1 (min workers n) in
  if workers = 1 then List.map f items
  else begin
    let out = Array.make n None in
    let next = Atomic.make 0 in
    let err = Atomic.make None in
    let rec drain () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n && Atomic.get err = None then begin
        (try out.(i) <- Some (f arr.(i)) with e -> Atomic.set err (Some e));
        drain ()
      end
    in
    let domains = List.init (workers - 1) (fun _ -> Domain.spawn drain) in
    drain ();
    List.iter Domain.join domains;
    (match Atomic.get err with Some e -> raise e | None -> ());
    Array.to_list (Array.map Option.get out)
  end
