type flow_row = {
  wl_m : float;
  wl_norm : float;
  grc_pct : float;
  wns_pct : float;
  tns : float;
}

type circuit_rows = {
  name : string;
  cells : int;
  macros : int;
  flows : (string * flow_row) list;
}

type average = { avg_wl_norm : float; avg_wns_pct : float; effort : string }

let row wl_m wl_norm grc_pct wns_pct tns = { wl_m; wl_norm; grc_pct; wns_pct; tns }

(* The three flow columns of the paper's tables, by name. *)
let columns indeda hidap handfp = [ ("IndEDA", indeda); ("HiDaP", hidap); ("handFP", handfp) ]

(* Paper Table III, transcribed verbatim. *)
let table3 =
  [ { name = "c1"; cells = 520_000; macros = 32;
      flows = columns (row 13.19 1.029 6.51 0.0 0.0)
          (row 13.40 1.046 7.83 0.3 0.0)
          (row 12.81 1.000 7.36 (-0.2) 0.0) };
    { name = "c2"; cells = 3_950_000; macros = 100;
      flows = columns (row 46.01 1.180 12.99 (-44.5) (-931.0))
          (row 40.72 1.045 13.00 (-19.0) (-329.0))
          (row 38.97 1.000 9.33 (-11.2) (-213.0)) };
    { name = "c3"; cells = 3_780_000; macros = 94;
      flows = columns (row 44.83 1.175 10.09 (-75.5) (-553.0))
          (row 35.02 0.918 8.29 (-17.5) (-260.0))
          (row 38.16 1.000 9.15 (-17.8) (-317.0)) };
    { name = "c4"; cells = 4_810_000; macros = 122;
      flows = columns (row 45.03 1.174 7.24 (-54.4) (-2167.0))
          (row 40.43 1.054 4.94 (-31.2) (-2686.0))
          (row 38.35 1.000 3.33 (-22.8) (-1736.0)) };
    { name = "c5"; cells = 1_390_000; macros = 133;
      flows = columns (row 44.25 1.162 2.02 (-30.8) (-1940.0))
          (row 39.51 1.038 4.72 (-25.1) (-1149.0))
          (row 38.06 1.000 3.42 (-39.8) (-1017.0)) };
    { name = "c6"; cells = 2_870_000; macros = 90;
      flows = columns (row 96.42 1.288 9.95 (-70.0) (-15341.0))
          (row 79.20 1.058 2.22 (-37.0) (-5051.0))
          (row 74.87 1.000 1.63 (-27.3) (-3688.0)) };
    { name = "c7"; cells = 1_670_000; macros = 108;
      flows = columns (row 41.44 1.174 38.56 (-34.9) (-1060.0))
          (row 35.52 1.007 6.47 (-29.9) (-1059.0))
          (row 35.29 1.000 4.61 (-20.4) (-774.0)) };
    { name = "c8"; cells = 2_200_000; macros = 37;
      flows = columns (row 24.85 0.987 1.02 (-3.4) (-44.0))
          (row 23.75 0.944 1.37 0.0 0.0)
          (row 25.17 1.000 0.93 (-3.9) (-24.0)) } ]

(* Paper Table II. *)
let table2 =
  columns
    { avg_wl_norm = 1.143; avg_wns_pct = -39.1; effort = "10-30 mins (CPU)" }
    { avg_wl_norm = 1.013; avg_wns_pct = -24.6; effort = "0.5-2 hours (CPU)" }
    { avg_wl_norm = 1.000; avg_wns_pct = -17.9; effort = "2-4 weeks (engineers + CPU)" }

let find name = List.find_opt (fun c -> c.name = name) table3
