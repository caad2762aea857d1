# Smoke test for VCF input to `ldla_cli compute`: a file with one unphased
# site loads with that site skipped (exit 0 and a "skipped 1" note), and a
# file whose POS decreases is refused with a non-zero exit.
#
#   cmake -DCLI=<path to ldla_cli> -DWORK_DIR=<scratch dir> \
#         -P cli_vcf_smoke.cmake
string(CONCAT header "##fileformat=VCFv4.2\n"
       "#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\tS1\tS2\tS3\n")
set(good "${WORK_DIR}/cli_vcf_smoke.vcf")
set(decreasing "${WORK_DIR}/cli_vcf_smoke_decreasing.vcf")

file(WRITE "${good}" "${header}"
     "1\t100\trs1\tA\tG\t.\tPASS\t.\tGT\t0|1\t1|1\t0|0\n"
     "1\t110\trs2\tC\tT\t.\tPASS\t.\tGT\t0/1\t1|0\t0|1\n"
     "1\t120\trs3\tG\tA\t.\tPASS\t.\tGT\t1|0\t0|0\t1|1\n"
     "1\t130\trs4\tT\tC\t.\tPASS\t.\tGT\t0|0\t1|1\t1|0\n")
file(WRITE "${decreasing}" "${header}"
     "1\t100\trs1\tA\tG\t.\tPASS\t.\tGT\t0|1\t1|1\t0|0\n"
     "2\t50\trs2\tC\tT\t.\tPASS\t.\tGT\t1|0\t1|0\t0|1\n")

execute_process(COMMAND "${CLI}" compute "${good}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
execute_process(COMMAND "${CLI}" compute "${decreasing}"
                RESULT_VARIABLE bad_rc OUTPUT_VARIABLE bad_out
                ERROR_VARIABLE bad_err)
file(REMOVE "${good}" "${decreasing}")

if(NOT rc EQUAL 0)
  message(FATAL_ERROR "ldla_cli compute exited ${rc}:\n${out}${err}")
endif()
if(NOT err MATCHES "skipped 1 ")
  message(FATAL_ERROR "ldla_cli compute printed no 'skipped 1' note:\n${err}")
endif()
if(bad_rc EQUAL 0)
  message(FATAL_ERROR
          "ldla_cli compute accepted a decreasing POS:\n${bad_out}${bad_err}")
endif()
if(NOT bad_err MATCHES "POS 50 decreases")
  message(FATAL_ERROR
          "ldla_cli compute gave no decreasing-POS error:\n${bad_err}")
endif()
message(STATUS "${err}${bad_err}")
