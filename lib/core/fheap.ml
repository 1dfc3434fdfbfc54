(* Minimal binary min-heap on float keys. *)
type 'a t = { mutable data : (float * 'a) array; mutable size : int }

let create () = { data = [||]; size = 0 }

let push h key v =
  if h.size = Array.length h.data then begin
    let bigger = Array.make (max 16 (2 * h.size)) (key, v) in
    Array.blit h.data 0 bigger 0 h.size;
    h.data <- bigger
  end;
  h.data.(h.size) <- (key, v);
  let i = ref h.size in
  h.size <- h.size + 1;
  while !i > 0 && fst h.data.((!i - 1) / 2) > fst h.data.(!i) do
    let parent = (!i - 1) / 2 in
    let tmp = h.data.(parent) in
    h.data.(parent) <- h.data.(!i);
    h.data.(!i) <- tmp;
    i := parent
  done

let pop h =
  let top = h.data.(0) in
  h.size <- h.size - 1;
  h.data.(0) <- h.data.(h.size);
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let smallest = ref !i in
    if l < h.size && fst h.data.(l) < fst h.data.(!smallest) then smallest := l;
    if r < h.size && fst h.data.(r) < fst h.data.(!smallest) then smallest := r;
    if !smallest = !i then continue := false
    else begin
      let tmp = h.data.(!smallest) in
      h.data.(!smallest) <- h.data.(!i);
      h.data.(!i) <- tmp;
      i := !smallest
    end
  done;
  top

let is_empty h = h.size = 0
