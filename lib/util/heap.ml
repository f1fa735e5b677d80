type 'a entry = { key : float; value : 'a }

type 'a t = { mutable data : 'a entry array; mutable len : int }

let create () = { data = [||]; len = 0 }

let is_empty t = t.len = 0

let length t = t.len

let grow t =
  let cap = Array.length t.data in
  if t.len = cap then begin
    let ncap = max 8 (cap * 2) in
    let nd = Array.make ncap t.data.(0) in
    Array.blit t.data 0 nd 0 t.len;
    t.data <- nd
  end

let swap t i j =
  let tmp = t.data.(i) in
  t.data.(i) <- t.data.(j);
  t.data.(j) <- tmp

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if t.data.(i).key < t.data.(parent).key then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.len && t.data.(l).key < t.data.(!smallest).key then smallest := l;
  if r < t.len && t.data.(r).key < t.data.(!smallest).key then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let push t ~key value =
  let e = { key; value } in
  if Array.length t.data = 0 then t.data <- Array.make 8 e;
  grow t;
  t.data.(t.len) <- e;
  t.len <- t.len + 1;
  sift_up t (t.len - 1)

let pop_min t =
  if t.len = 0 then None
  else begin
    let top = t.data.(0) in
    t.len <- t.len - 1;
    if t.len > 0 then begin
      t.data.(0) <- t.data.(t.len);
      sift_down t 0
    end;
    Some (top.key, top.value)
  end
