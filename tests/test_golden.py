"""Pinned outputs of the CLI on the toy and the demo configs.

Each case's ``--format structured`` payload, without ``elapsed_s``, is
hashed (sha256 of its key-sorted compact JSON) and pinned with the exit
code; a command that prints no payload pins ``None``.  The same cases'
``--format text`` stdout is pinned by its sha256 the same way.  A change
to the engine must leave every digest as it is: any changed output is a
bug.  Re-record a digest only for an intended change of the output.
"""

import hashlib
import json
from pathlib import Path

import pytest

from gnetcode.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "demos" / "configs"

# (source, command) -> (exit code, payload digest); "toy" is --toy-example,
# any other source a file under demos/configs
GOLDEN = {
    ("toy", "distances"):
        (0, "3c8dd2875098785eef86ae35061438dc2c19b5319738abdd4d3e407ac6539f79"),
    ("toy", "capability"):
        (0, "2888cb34b50142c303451d388a4e845720c00d556e78dff09232b9a1e95f5666"),
    ("toy", "classify"):
        (0, "60f966a72023645ce57a104c1e83f60595f10033f3edd74143e79fcd7c33ade4"),
    ("toy", "verify"):
        (0, "237109109603526eea79c3e3d7c883e030af043737fd496476663a8dc596e324"),
    ("toy", "joint --c 0 --cprime 1"):
        (0, "5272358bf929a2d53b21ad445b1c82fe685247965747b26c400786a1d11bd274"),
    ("toy", "decode 1,0,0"):
        (0, "960a6d76b4647efb6350ab3ba70c382427fb8222fe3b9cdb3f6bb84b5db898b7"),
    ("toy", "decode --bounded 1 1,0,0"):
        (0, "9125d06b3fe794e1cd6defa230383aa825f4f1c44b2cd38b54a626c35cde91ea"),
    ("toy", "decode --bounded 2 1,0,0"):
        (2, None),
    ("rank_channel.ini", "distances"):
        (0, "9992a60998fae70419ce2ae499e846335f18fff69b95cec5898a44451cc76539"),
    ("rank_channel.ini", "capability"):
        (0, "ec3626fee6ed0daccf9dbda50f2ecfe38c67f791bf5d37f7acf5f0d54c490559"),
    ("rank_channel.ini", "classify"):
        (0, "f3b3540f2aee3ee398e494269494e5d589c9631bc144dac3e90dc3511b62b94e"),
    ("rank_channel.ini", "verify"):
        (0, "6fa58def213ba61ec55edbc21dcdc0714cbeca79a6bc3f42e992695649dd644e"),
    ("rank_channel.ini", "joint --c 0 --cprime 1"):
        (0, "82cb22dbe70c1176303b6f1b78e5dc336d18d813015228ee8405cf8e0edd4851"),
    ("rank_channel.ini", "decode 1,0;0,1"):
        (0, "d68557d00adfcac75f230b24472d52cfc8be141196b8c43a445163a96ac816db"),
    ("rank_channel.ini", "decode --bounded 0 1,0;0,1"):
        (0, "251812138ee6c8c3b78f64750bda66686d4cbe3deea3589094ccabf445a41bbe"),
    ("repetition.ini", "distances"):
        (0, "c7179498976ccab2a7be3bc67d02dd9d3822a01c8f9995e638e4cda1950dc75b"),
    ("repetition.ini", "capability"):
        (0, "85a7765822ab35c88e5cb3f0d887ead1f081ee5c19f5aa34889592b395acdd95"),
    ("repetition.ini", "classify"):
        (0, "8808d3b0d2abea3340c3d11374800e60595ff346e97d8750eb1e4811716cbdd1"),
    ("repetition.ini", "verify"):
        (0, "b552e0fa4da8b962d319f542bff780c2e613576ca52aee2461d8268a62592d7e"),
    ("repetition.ini", "joint --c 0 --cprime 1"):
        (0, "080cdbf1e82a6e036953f3ba66b4044e687634886ec2a2ddec1e92292454e939"),
    ("repetition.ini", "decode 1,0,0"):
        (0, "ab23c1637f4c5ccd1326b1e6e3fae086fb10c56ef7eacf529962ebebde819647"),
    ("repetition.ini", "decode --bounded 0 1,0,0"):
        (0, "5280e09edd320293d27962fc674292e53aad6852ffeece93410f3035f6a2e1f9"),
    ("toy_network.ini", "distances"):
        (0, "e481d0f9908f27fa6926985c5bb68e9f60f43732e437d6cad3e3fbba2be5d6ba"),
    ("toy_network.ini", "capability"):
        (0, "3a789833dbf5f33a1962eb55652d43eaca665fe77fe0e765fc6bc1bd99740eda"),
    ("toy_network.ini", "classify"):
        (0, "0eec2f1a9ce3bfcbe484b1a67416c3a52f8afff7fbfd8ee8ae338b13065f5b62"),
    ("toy_network.ini", "verify"):
        (0, "5650fcd433b769781c13c06998b810ac465c83e01a0413fbf982127bf12ca67a"),
    ("toy_network.ini", "joint --c 0 --cprime 1"):
        (0, "7d52b127535aab4f53913a5df0d3285288823f0631803b7023b550b7b47c0447"),
    ("toy_network.ini", "decode 1,0,0"):
        (0, "63aef0a8230c6c150403f21920398bab5641c0799c12d1ca3e0d3efc6064ab6e"),
    ("toy_network.ini", "decode --bounded 0 1,0,0"):
        (0, "158bb20ac6fbf76ca7dc5fc2a7a082e6f79405716899b451ab09f9e77dbff52a"),
    ("linear_relay_network.ini", "distances"):
        (0, "8cba198168e65a5b79cc06af47f74e15f2d328467b94f65fdaa0863b6992bd53"),
    ("linear_relay_network.ini", "capability"):
        (0, "aa5654217a3c0f2fbed3c107e173b5c4d70b198ed4b4f0dadd97faa890969cd0"),
    ("linear_relay_network.ini", "classify"):
        (0, "d34da0f1b5353432a600d075abd40287b399d4abd1a09706a727ea1ddc290aa4"),
    ("linear_relay_network.ini", "verify"):
        (0, "d809cabb193cb77262f9217f25d3879e358879398b97c16419f203f3e658216c"),
    ("linear_relay_network.ini", "joint --c 0 --cprime 1"):
        (0, "082bab0cf29b5dc81759231b9f76dbf7d7ffee5a6fbb716f35dbe139e608d139"),
    ("linear_relay_network.ini", "decode 1,0,0"):
        (0, "e4e8c1f55e13efd5e17a285ac79125b1b7444512167860de6f732e717324bec6"),
    ("linear_relay_network.ini", "decode --bounded 0 1,0,0"):
        (0, "48f28f35833cc1f186e0f69cba5c75e42ca23a905d9da72ce40fea2f4c5be393"),
    ("reed_solomon_gf5.ini", "distances"):
        (0, "aa2d46138144d25f34fac55bb1ec1b2e110c1173efa06abb4e18edd942b71452"),
    ("reed_solomon_gf5.ini", "capability"):
        (0, "483a2be93525e59d8f6d1326c566e76ecac857b1f2f024e3c929d55eb6e58829"),
    ("reed_solomon_gf5.ini", "classify"):
        (0, "197171c402c4851fe4b42b642ce45afc0e82941617a98f7d8323993dc2073b3d"),
    ("reed_solomon_gf5.ini", "verify"):
        (0, "1302ee46faa1d82cdd29f7b248af3eb4f2e4139e1c95d0f0ca80c9ed75dbeb72"),
    ("reed_solomon_gf5.ini", "joint --c 0 --cprime 1"):
        (0, "a9c0dcd1dac03e608bf46e1dad9964f575ae7375a1f516ac9e3a261991a86046"),
    ("reed_solomon_gf5.ini", "decode 1,0,0,0"):
        (0, "a8f4918f1ec4bd5c7d882b83e056b254f90c7609943b63abdd7b7caf3150c7b1"),
    ("reed_solomon_gf5.ini", "decode --bounded 1 1,0,0,0"):
        (0, "e035e27d25f739c669898e62f356c371b01fdb59b6bbdb187d2be4b8a8e75896"),
    ("gabidulin_k1.ini", "distances"):
        (0, "18235403a400046b063521ba6d64fc6670a6e6e5f319203b66b643ed1e121eb7"),
    ("gabidulin_k1.ini", "capability"):
        (0, "e5dd0b039402d219f4ff8cb1224f15122dcb14943fa89be07cd3229d0627dcbe"),
    ("gabidulin_k1.ini", "classify"):
        (0, "250db7a15b3fcf159f718feebef03f6c30a341cbce53f1af79a129898aea4eb8"),
    ("gabidulin_k1.ini", "verify"):
        (0, "7d2c6b4e9143d8cc80b855a8cf4144da659f1b395b551c67de328ad05140a8fe"),
    ("gabidulin_k1.ini", "joint --c 0 --cprime 1"):
        (0, "4f35a388a6b81dbcb4040a6f92e2e48755c89e0627d5a401a7f7d48fc24ad8b5"),
    ("gabidulin_k1.ini", "decode 1,0,0;0,0,0;0,0,0"):
        (0, "e6d24828985dabd60af9d71be95646ee484b0130c2be0b3bfcc760d36f4ac946"),
    ("gabidulin_k1.ini", "decode --bounded 1 1,0,0;0,0,0;0,0,0"):
        (0, "82ed1097b3bfb1da6f3893ea088918ef1a3bec8b2de54d71605dc58ec7ea3c9e"),
    ("table_nonlinear.ini", "distances"):
        (0, "99a9f7643b91c0f10fdf75f582eed30a995ec7c89f90990db5c2213d7d8325f1"),
    ("table_nonlinear.ini", "capability"):
        (0, "2ffeb7383e4aaa2d7fc2b95d2cfe103b5666d69274792bb3e39d73086c3f6e43"),
    ("table_nonlinear.ini", "classify"):
        (0, "e1c190c712702dcb4c03c556f2044cd6ad2b3d8f8e1a2defe81a376d4d34b93e"),
    ("table_nonlinear.ini", "verify"):
        (0, "0d5e4a4c23b29455f6186679106b1f67dd2d6d455752819846cd60cbde32e34c"),
    ("table_nonlinear.ini", "joint --c 0 --cprime 1"):
        (0, "bf43c96b529122bb82684c3fa8b11ca5c02b489feb6bbacc4851bf2985201de1"),
    ("table_nonlinear.ini", "decode 1,0"):
        (0, "aa5b0afb77b0a1e6dc8394c545e9f8556443bcc347887eaab496d67a9c7bc616"),
    ("table_nonlinear.ini", "decode --bounded 0 1,0"):
        (0, "f1626034c5a4a7b12ba1454caedb098d5d98cf4c13a86336a5c842274c15df02"),
    ("sum_rank_space.ini", "distances"):
        (0, "ba5b81160f444d81a78c546e6af319d65bef4884990f80151eb84e20fb46c64e"),
    ("sum_rank_space.ini", "capability"):
        (0, "a7756a259adaf128c0f5f882abb9aa04cd0a19f4f8e066f4a98f6fab80aa64c3"),
    ("sum_rank_space.ini", "classify"):
        (0, "a46028e7cbb57b5f448efc73b6aa793e732e3be98b515181338d6974a2df009a"),
    ("sum_rank_space.ini", "verify"):
        (0, "5e3eae3b85797403dae24b6e80adb676e70875f3e0b52ec499201018e2f8bf06"),
    ("sum_rank_space.ini", "joint --c 0 --cprime 1"):
        (0, "66be79f351bbbea5237710a8df7ebcd0ceef495f35e218fe84bce6588f6c8523"),
    ("sum_rank_space.ini", "decode 1,1,0;0,0,0"):
        (0, "ab71a5e8402b4120498a256771ab40dca7833c696e9a099736f11d57be480af0"),
    ("sum_rank_space.ini", "decode --bounded 0 1,1,0;0,0,0"):
        (0, "84895c2c8998f148516a48f7e3fb93421fe981589c7382548a646dfdeeeaa88d"),
    ("matrix_vector_code.ini", "distances"):
        (0, "50216cc94c64f6d52bcf328f822ecf38a93d10eafea62b493fc0efd583e01c42"),
    ("matrix_vector_code.ini", "capability"):
        (0, "95015c5d62171123852fe4e5417a296d2a3053884255b4626b6566afc9b8c45b"),
    ("matrix_vector_code.ini", "classify"):
        (0, "c831797f3d0d25aad8c5fce3b58287092377421062a869d7153c3fdb5d27f0af"),
    ("matrix_vector_code.ini", "verify"):
        (0, "3d402a8f74eef3cdc57a7e6058f74ca0cc467b937ea0c4432007c0a17de3fbf7"),
    ("matrix_vector_code.ini", "joint --c 0 --cprime 1"):
        (0, "cfee6f7e89658c910ac196b11efaf8b45942de3c8c00bb507c0acacc902d5d87"),
    ("matrix_vector_code.ini", "decode 1,0,0"):
        (0, "8dbad4b0d51e5c33343ee08ff81e4731f56f92b5e929ec11be28379f6d2d857a"),
    ("matrix_vector_code.ini", "decode --bounded 0 1,0,0"):
        (0, "ca667d75f64bb6ed4cb54c40a70180af9559f6a86e20f30211c023ca70733e86"),
}

# (source, command) -> (exit code, sha256 of the --format text stdout)
TEXT_GOLDEN = {
    ("toy", "distances"):
        (0, "f1aa3456468fc5e5a98b085afedd0846f334ca0b455204dfc6c32031e6c46972"),
    ("toy", "capability"):
        (0, "cc3b3369229a244f932afe4b6f44ad457d26cfd0eba950eda547bd7a5bc0e249"),
    ("toy", "classify"):
        (0, "2b5a2e61f66a63dff367e8b3b773b2c33af99b47c690e28313d23ad279cef868"),
    ("toy", "verify"):
        (0, "4b5803752a75a0d96ec999cee32c1a711210ab11794507c31a5f1beb8d4b47b2"),
    ("toy", "joint --c 0 --cprime 1"):
        (0, "8fd9aea7f3cdfc00d8747a4dd8682e9edd7e9fb624561144c86b73e55dfdadbc"),
    ("toy", "decode 1,0,0"):
        (0, "e9ab2843183ad9d57263da36e9d431cf630bebf3dcaa76703f145ffd5285cadd"),
    ("toy", "decode --bounded 1 1,0,0"):
        (0, "e9ab2843183ad9d57263da36e9d431cf630bebf3dcaa76703f145ffd5285cadd"),
    ("toy", "decode --bounded 2 1,0,0"):
        (2, None),
    ("rank_channel.ini", "distances"):
        (0, "2e028c82d3052123a3e062c94d97b6b53b20bf290f0d4be881858a73567f54b7"),
    ("rank_channel.ini", "capability"):
        (0, "efd15fd96ea13439f7e801ac5cf8fb87bfc7505d854a5afbc50d013de8aa76fc"),
    ("rank_channel.ini", "classify"):
        (0, "6e0239d9549000aeecc33912ec74e4f8066ca4edaa635e1cc362ae15f2e95af5"),
    ("rank_channel.ini", "verify"):
        (0, "72feace39dcc39824c51930eb5f36a67ebc30e2e1fb8e67ee355f949f692d606"),
    ("rank_channel.ini", "joint --c 0 --cprime 1"):
        (0, "d0f1c4fbf29a22d21ed1aef74e8a2f8a841c6874551c84579acee2cee56776dd"),
    ("rank_channel.ini", "decode 1,0;0,1"):
        (0, "c8dd1a9873c44e4b346aaae27bbad8bc0f06c474a6ec6d3c81d811a8dff43b3a"),
    ("rank_channel.ini", "decode --bounded 0 1,0;0,1"):
        (0, "c8dd1a9873c44e4b346aaae27bbad8bc0f06c474a6ec6d3c81d811a8dff43b3a"),
    ("repetition.ini", "distances"):
        (0, "956ef1d7462cf0c12efb5e683d3dcd1f80dffa40267de313ec3a90b079656e65"),
    ("repetition.ini", "capability"):
        (0, "1b408bcc8858c7310981f81386196fdb0d097d7ad82dd19b76cdd39b5657b68e"),
    ("repetition.ini", "classify"):
        (0, "6e0239d9549000aeecc33912ec74e4f8066ca4edaa635e1cc362ae15f2e95af5"),
    ("repetition.ini", "verify"):
        (0, "72feace39dcc39824c51930eb5f36a67ebc30e2e1fb8e67ee355f949f692d606"),
    ("repetition.ini", "joint --c 0 --cprime 1"):
        (0, "8fd9aea7f3cdfc00d8747a4dd8682e9edd7e9fb624561144c86b73e55dfdadbc"),
    ("repetition.ini", "decode 1,0,0"):
        (0, "e9ab2843183ad9d57263da36e9d431cf630bebf3dcaa76703f145ffd5285cadd"),
    ("repetition.ini", "decode --bounded 0 1,0,0"):
        (0, "c8dd1a9873c44e4b346aaae27bbad8bc0f06c474a6ec6d3c81d811a8dff43b3a"),
    ("toy_network.ini", "distances"):
        (0, "f1aa3456468fc5e5a98b085afedd0846f334ca0b455204dfc6c32031e6c46972"),
    ("toy_network.ini", "capability"):
        (0, "cc3b3369229a244f932afe4b6f44ad457d26cfd0eba950eda547bd7a5bc0e249"),
    ("toy_network.ini", "classify"):
        (0, "2b5a2e61f66a63dff367e8b3b773b2c33af99b47c690e28313d23ad279cef868"),
    ("toy_network.ini", "verify"):
        (0, "4b5803752a75a0d96ec999cee32c1a711210ab11794507c31a5f1beb8d4b47b2"),
    ("toy_network.ini", "joint --c 0 --cprime 1"):
        (0, "8fd9aea7f3cdfc00d8747a4dd8682e9edd7e9fb624561144c86b73e55dfdadbc"),
    ("toy_network.ini", "decode 1,0,0"):
        (0, "e9ab2843183ad9d57263da36e9d431cf630bebf3dcaa76703f145ffd5285cadd"),
    ("toy_network.ini", "decode --bounded 0 1,0,0"):
        (0, "c8dd1a9873c44e4b346aaae27bbad8bc0f06c474a6ec6d3c81d811a8dff43b3a"),
    ("linear_relay_network.ini", "distances"):
        (0, "8643cd0def6d81cd2b51ddd6d43262b0f674077641d1677f380fcee6a721658b"),
    ("linear_relay_network.ini", "capability"):
        (0, "a6bad18f6cf3c2ebb79fcdfc5f334672d34e1eda6262e583ada20e365e986602"),
    ("linear_relay_network.ini", "classify"):
        (0, "6e0239d9549000aeecc33912ec74e4f8066ca4edaa635e1cc362ae15f2e95af5"),
    ("linear_relay_network.ini", "verify"):
        (0, "72feace39dcc39824c51930eb5f36a67ebc30e2e1fb8e67ee355f949f692d606"),
    ("linear_relay_network.ini", "joint --c 0 --cprime 1"):
        (0, "8fd9aea7f3cdfc00d8747a4dd8682e9edd7e9fb624561144c86b73e55dfdadbc"),
    ("linear_relay_network.ini", "decode 1,0,0"):
        (0, "c8dd1a9873c44e4b346aaae27bbad8bc0f06c474a6ec6d3c81d811a8dff43b3a"),
    ("linear_relay_network.ini", "decode --bounded 0 1,0,0"):
        (0, "c8dd1a9873c44e4b346aaae27bbad8bc0f06c474a6ec6d3c81d811a8dff43b3a"),
    ("reed_solomon_gf5.ini", "distances"):
        (0, "ff3de9702f055e5b21529643b80736de6565fbd23af0082b5a5057bc672e6407"),
    ("reed_solomon_gf5.ini", "capability"):
        (0, "1b408bcc8858c7310981f81386196fdb0d097d7ad82dd19b76cdd39b5657b68e"),
    ("reed_solomon_gf5.ini", "classify"):
        (0, "6e0239d9549000aeecc33912ec74e4f8066ca4edaa635e1cc362ae15f2e95af5"),
    ("reed_solomon_gf5.ini", "verify"):
        (0, "72feace39dcc39824c51930eb5f36a67ebc30e2e1fb8e67ee355f949f692d606"),
    ("reed_solomon_gf5.ini", "joint --c 0 --cprime 1"):
        (0, "8fd9aea7f3cdfc00d8747a4dd8682e9edd7e9fb624561144c86b73e55dfdadbc"),
    ("reed_solomon_gf5.ini", "decode 1,0,0,0"):
        (0, "ae275a54d104f13886cc979892775b2e7051e0199d2d6a69165e2cca375a7bf3"),
    ("reed_solomon_gf5.ini", "decode --bounded 1 1,0,0,0"):
        (0, "ae275a54d104f13886cc979892775b2e7051e0199d2d6a69165e2cca375a7bf3"),
    ("gabidulin_k1.ini", "distances"):
        (0, "8712419154db5f3a6667c2604b59069bdc1f76c5b94bc0898c67e2f572dfce4e"),
    ("gabidulin_k1.ini", "capability"):
        (0, "1b408bcc8858c7310981f81386196fdb0d097d7ad82dd19b76cdd39b5657b68e"),
    ("gabidulin_k1.ini", "classify"):
        (0, "6e0239d9549000aeecc33912ec74e4f8066ca4edaa635e1cc362ae15f2e95af5"),
    ("gabidulin_k1.ini", "verify"):
        (0, "72feace39dcc39824c51930eb5f36a67ebc30e2e1fb8e67ee355f949f692d606"),
    ("gabidulin_k1.ini", "joint --c 0 --cprime 1"):
        (0, "8fd9aea7f3cdfc00d8747a4dd8682e9edd7e9fb624561144c86b73e55dfdadbc"),
    ("gabidulin_k1.ini", "decode 1,0,0;0,0,0;0,0,0"):
        (0, "78cfe4bffec749ab5c5fad918f2d19ac3cc26f7d3353c1f7dfae557ffc96fd88"),
    ("gabidulin_k1.ini", "decode --bounded 1 1,0,0;0,0,0;0,0,0"):
        (0, "78cfe4bffec749ab5c5fad918f2d19ac3cc26f7d3353c1f7dfae557ffc96fd88"),
    ("table_nonlinear.ini", "distances"):
        (0, "efff4f608a81925acf42676934ca9de046aa3fb348eaa5ce399bb37bba4bedec"),
    ("table_nonlinear.ini", "capability"):
        (0, "a6bad18f6cf3c2ebb79fcdfc5f334672d34e1eda6262e583ada20e365e986602"),
    ("table_nonlinear.ini", "classify"):
        (0, "3d03c2b5d4f556587a89c9ec90ca069ed228a6bf8c820f4017bf121a561d5fea"),
    ("table_nonlinear.ini", "verify"):
        (0, "09a1143821f434e59f168885febbf96ef53ec0c4fad1abeae36047e593007963"),
    ("table_nonlinear.ini", "joint --c 0 --cprime 1"):
        (0, "8fd9aea7f3cdfc00d8747a4dd8682e9edd7e9fb624561144c86b73e55dfdadbc"),
    ("table_nonlinear.ini", "decode 1,0"):
        (0, "be7618e56c00b488e1c74b2d594ae411351f996accb61a9e39d1980d0b401dbc"),
    ("table_nonlinear.ini", "decode --bounded 0 1,0"):
        (0, "be7618e56c00b488e1c74b2d594ae411351f996accb61a9e39d1980d0b401dbc"),
    ("sum_rank_space.ini", "distances"):
        (0, "51057a8a2efd883330a89b4c7e60a454eb45e61b577c3cb7f86683fd1750cf37"),
    ("sum_rank_space.ini", "capability"):
        (0, "a6bad18f6cf3c2ebb79fcdfc5f334672d34e1eda6262e583ada20e365e986602"),
    ("sum_rank_space.ini", "classify"):
        (0, "6e0239d9549000aeecc33912ec74e4f8066ca4edaa635e1cc362ae15f2e95af5"),
    ("sum_rank_space.ini", "verify"):
        (0, "72feace39dcc39824c51930eb5f36a67ebc30e2e1fb8e67ee355f949f692d606"),
    ("sum_rank_space.ini", "joint --c 0 --cprime 1"):
        (0, "8fd9aea7f3cdfc00d8747a4dd8682e9edd7e9fb624561144c86b73e55dfdadbc"),
    ("sum_rank_space.ini", "decode 1,1,0;0,0,0"):
        (0, "2ea48c1a91a5905137f7603f76975bcff05e84b16bc3fdc39e35ec6d62e442bd"),
    ("sum_rank_space.ini", "decode --bounded 0 1,1,0;0,0,0"):
        (0, "2ea48c1a91a5905137f7603f76975bcff05e84b16bc3fdc39e35ec6d62e442bd"),
    ("matrix_vector_code.ini", "distances"):
        (0, "87606f124cdad1ee1a32e07a45674cca963879f561be9d9b46fe5b1949f51aeb"),
    ("matrix_vector_code.ini", "capability"):
        (0, "a6bad18f6cf3c2ebb79fcdfc5f334672d34e1eda6262e583ada20e365e986602"),
    ("matrix_vector_code.ini", "classify"):
        (0, "6e0239d9549000aeecc33912ec74e4f8066ca4edaa635e1cc362ae15f2e95af5"),
    ("matrix_vector_code.ini", "verify"):
        (0, "72feace39dcc39824c51930eb5f36a67ebc30e2e1fb8e67ee355f949f692d606"),
    ("matrix_vector_code.ini", "joint --c 0 --cprime 1"):
        (0, "8fd9aea7f3cdfc00d8747a4dd8682e9edd7e9fb624561144c86b73e55dfdadbc"),
    ("matrix_vector_code.ini", "decode 1,0,0"):
        (0, "c8dd1a9873c44e4b346aaae27bbad8bc0f06c474a6ec6d3c81d811a8dff43b3a"),
    ("matrix_vector_code.ini", "decode --bounded 0 1,0,0"):
        (0, "c8dd1a9873c44e4b346aaae27bbad8bc0f06c474a6ec6d3c81d811a8dff43b3a"),
}


def payload_digest(text: str) -> str | None:
    if not text:
        return None
    payload = json.loads(text)
    del payload["elapsed_s"]
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("source, command", list(GOLDEN), ids=str)
def test_structured_output_is_pinned(capsys, source, command):
    head = ["--toy-example"] if source == "toy" else ["--config", str(CONFIGS / source)]
    code = main([*head, "--format", "structured", *command.split()])
    assert (code, payload_digest(capsys.readouterr().out)) == GOLDEN[source, command]


def test_every_demo_config_is_pinned():
    assert ({p.name for p in CONFIGS.glob("*.ini")}
            == {source for source, _ in GOLDEN} - {"toy"})


def test_every_demo_config_pins_the_demo_commands():
    """Each command CI's Demos step runs on a demo config has a pinned
    output (TEXT_GOLDEN has the same cases as GOLDEN)."""
    commands = ("distances", "capability", "classify", "verify", "joint --c 0 --cprime 1")
    assert not {(p.name, c) for p in CONFIGS.glob("*.ini") for c in commands} - set(GOLDEN)


@pytest.mark.parametrize("source, command", list(TEXT_GOLDEN), ids=str)
def test_text_output_is_pinned(capsys, source, command):
    head = ["--toy-example"] if source == "toy" else ["--config", str(CONFIGS / source)]
    code = main([*head, "--format", "text", *command.split()])
    out = capsys.readouterr().out
    digest = hashlib.sha256(out.encode()).hexdigest() if out else None
    assert (code, digest) == TEXT_GOLDEN[source, command]


def test_text_and_structured_cases_agree():
    assert list(TEXT_GOLDEN) == list(GOLDEN)
