type stats = Fmtk_eval.Eval.stats

let new_stats = Fmtk_eval.Eval.new_stats
let sat = Fmtk_eval.Compiled.sat
let answers = Fmtk_eval.Compiled.definable_relation
